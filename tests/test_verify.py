import pytest

from xbarbnn.verify import CHECKS, NU_MAX


@pytest.mark.parametrize("check", [check for _, check in CHECKS], ids=[name.format(nu_max=NU_MAX) for name, _ in CHECKS])
def test_check(check):
    assert check()
