"""Differential references, once each, one module per library layer:
the former or independent code that a fast path's test checks it against.
tests/test_reference_home.py keeps them here and keeps each one in use."""


def raised(fn):
    """fn's value, or the type and message of what it raised."""
    try:
        return fn()
    except (ArithmeticError, ValueError, KeyError) as exc:
        return type(exc), str(exc)
