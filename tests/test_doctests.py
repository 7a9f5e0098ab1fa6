"""Run the doctests embedded in the library modules."""

import doctest

import gkmcalc.builders
import gkmcalc.coxeter
import gkmcalc.polyring


def test_polyring_doctests():
    failures, tried = doctest.testmod(gkmcalc.polyring)
    assert tried > 0 and failures == 0


def test_coxeter_doctests():
    failures, tried = doctest.testmod(gkmcalc.coxeter)
    assert tried > 0 and failures == 0


def test_builders_doctests():
    failures, tried = doctest.testmod(gkmcalc.builders)
    assert tried > 0 and failures == 0
