from cofinj import _kernel
from cofinj.core import shift


def test_dispatch_falls_back_on_big_values():
    a = shift(10**40)
    assert a * a == shift(2 * 10**40)
    got = _kernel.compose_segments(a.segments, shift(-(10**40)).segments)
    assert got == list(shift(0).segments)


def test_kernel_name_reports():
    assert _kernel.kernel_name() in ("c", "pure")
