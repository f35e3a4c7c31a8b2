"""Fixtures shared by several test modules."""

import random
from fractions import Fraction

import pytest

from relfold.smallcancel import Presentation, check_Cprime
from relfold.words import Alphabet, format_word, is_proper_power, random_cyclically_reduced


@pytest.fixture(scope="session")
def default_class_relator():
    """A length-1000 rank-2 relator passing C1/C2 at the default 1/63 bound."""
    rng = random.Random(7)
    while True:
        r = random_cyclically_reduced(2, 1000, rng)
        if is_proper_power(r):
            continue
        if check_Cprime(Presentation(Alphabet(2), (r,)), Fraction(1, 63)):
            return format_word(r)
