"""The package's public names: every export resolves, and none is listed twice."""

import collections

import wasscurve


def test_every_export_resolves():
    missing = [name for name in wasscurve.__all__ if not hasattr(wasscurve, name)]
    assert not missing


def test_every_export_is_listed_once():
    repeated = [name for name, count in collections.Counter(wasscurve.__all__).items() if count > 1]
    assert not repeated
