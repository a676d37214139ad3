"""What the benchmark under perfbench/ relies on in the library, checked without running it.

perfbench wraps library functions and methods by name for its per-layer
trace and reads elements through their raw normal-form data in its oracle.
These tests read perfbench's own modules and change nothing in them.
"""

import importlib.util
import os
import random

from cofinj import almost as am
from cofinj import core
from cofinj.core import IdempotentGaps, MonotoneElement, collapse_element, random_element, shift

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = _load("tracer")
oracle = _load("oracle")


def test_every_traced_layer_resolves_in_its_owners_namespace():
    modules = tracer.cofinj_modules()
    for mod_name, attr, group, hook in tracer.LAYERS:
        owner = modules[mod_name]
        path = attr.split(".")
        for p in path[:-1]:
            owner = getattr(owner, p)
        assert path[-1] in owner.__dict__, (mod_name, attr)
        assert callable(owner.__dict__[path[-1]]), (mod_name, attr)


def test_tracer_install_runs_and_restores():
    modules = tracer.cofinj_modules()
    before = {
        (m, k): v for m, mod in modules.items() for k, v in vars(mod).items() if callable(v)
    }
    t = tracer.Tracer(max_spans=1000)
    t.install(modules)
    try:
        x = am.make_almost(0, 0, 6, 0, {1: 5, 2: 3, 3: 4})
        m = random_element(3, 2, 2)
        y = x * m * x.inverse()
        x.dom_gaps(), y.ran_gaps(), m.dom_gaps(), am.canonicalize(am.from_monotone(m))
    finally:
        t.uninstall()
    after = {
        (m, k): v for m, mod in modules.items() for k, v in vars(mod).items() if callable(v)
    }
    assert after == before
    table = t.table()
    for group in ("almost.compose", "almost.gaps", "almost.make", "almost.convert", "core.gaps", "_kernel"):
        assert table[group]["calls"] > 0, group
    assert t.counts["almost.compose.window_points"] >= 0


def _corpus():
    rng = random.Random(5)
    out = [shift(0), shift(7), shift(-3), am.from_monotone(shift(4)), am.make_almost(5, 2, 6, 2, {})]
    for _ in range(30):
        out.append(random_element(rng, 3, 3))
        out.append(am.random_almost(rng, max_offset=3, window=8, max_middle=8))
    x = am.make_almost(-2, 1, 4, -1, {-1: 2, 0: 0, 2: 1})
    for k in (2**60, -(2**60)):
        out += [shift(k) * x, x * shift(k), shift(k) * x * shift(-k), shift(k)]
        out.append(shift(k) * IdempotentGaps({0, 3}).to_element())
        out.append(am.from_monotone(shift(k)))
    return out


def test_almost_elements_have_no_segments_attribute():
    # the oracle takes an element with a `segments` attribute for a monotone one
    for e in _corpus():
        assert hasattr(e, "segments") == isinstance(e, MonotoneElement)
        assert hasattr(e, "segments") or hasattr(e, "middle")


def test_oracle_point_map_agrees_with_the_elements():
    for e in _corpus():
        f = oracle.PointMap(e)
        dom, img = f.breakpoints()
        xs = {0}
        for p in dom | img:
            xs.update(range(p - 3, p + 4))
        for x in xs:
            assert f(x) == e(x), (e, x)
        assert f.tails() == (e.left_offset, e.right_offset)


def test_collapse_cache_counts_repeated_collapses():
    # the worker reports core.collapse.hit_ratio from this cache's counters
    gaps = (-(2**40), 3, 5, 6)
    collapse_element(gaps)
    before = core._collapse_cached.cache_info()
    assert collapse_element(reversed(gaps)) == collapse_element(gaps)
    after = core._collapse_cached.cache_info()
    assert after.hits == before.hits + 2
    assert after.misses == before.misses


def test_audits_draw_every_member_through_sample_member(monkeypatch):
    # the tracer's topology.sample count wraps sample_member, so each audit draw must pass through it
    from cofinj import topology

    calls = []
    draw = topology.sample_member

    def counted(nbhd, rng):
        calls.append(nbhd.center)
        return draw(nbhd, rng)

    monkeypatch.setattr(topology, "sample_member", counted)
    a, b = random_element(7, 2, 2), random_element(8, 2, 2)
    assert topology.audit_product_cover(a, b, (), random.Random(0), samples=3)
    assert calls == [a, b] * 3
