#!/usr/bin/env python3
"""Run the acceptance suite (the exhaustive shipping criteria) on its own.

Prints the ten slowest tests, so each criterion's time shows.
"""

import sys

import pytest

if __name__ == "__main__":
    sys.exit(pytest.main(["tests/test_acceptance.py", "-v", "--durations=10", *sys.argv[1:]]))
