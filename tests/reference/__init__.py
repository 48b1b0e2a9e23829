"""Deliberately naive reference implementations for differential tests.

Each module here keeps the straightforward version of an optimized
path, so the property suites can drive both with the same seeded
inputs and compare their state exactly.
"""
