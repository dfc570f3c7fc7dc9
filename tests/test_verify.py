import pytest

from xbarbnn.verify import CHECKS


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    assert check() is None
