"""Replay a recorded CLI transcript and require byte-identical output.

``tests/data/cli_golden.json`` holds a few hundred statements covering every
statement form, both monoids, mixed products, inverses, shifts up to 2^60,
non-canonical and invalid ``am[...]`` literals, solving, neighborhoods,
sampling and the audits.  Each statement was run through
``cofinj --eval`` in text and json at ``--seed 0`` and ``--seed 5``, and each
of those four sets also once as a ``--script`` (so the random state carries
across statements); stdout, stderr and the exit code were recorded.

The transcript pins the CLI's observable behaviour across refactors of the
element representation.  Re-record it only for a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cofinj import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
SETS = [("text", 0), ("text", 5), ("json", 0), ("json", 5)]
SCRIPT_ARG = "@SCRIPT@"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _load():
    with open(GOLDEN) as fh:
        return json.load(fh)


def _replay(case, tmp_path):
    argv = list(case["argv"])
    if case.get("script") is not None:
        path = tmp_path / "golden.cfj"
        path.write_text(case["script"])
        argv[argv.index(SCRIPT_ARG)] = str(path)
    return run_cli(argv)


def _mismatches(cases, tmp_path):
    bad = []
    for case in cases:
        got = _replay(case, tmp_path)
        want = (case["rc"], case["stdout"], case["stderr"])
        if got != want:
            bad.append((case["argv"], want, got))
    return bad


@pytest.mark.parametrize("fmt,seed", SETS)
def test_golden_transcript(fmt, seed, tmp_path):
    cases = [c for c in _load()["cases"] if c["set"] == [fmt, seed]]
    assert len(cases) > 200
    bad = _mismatches(cases, tmp_path)
    assert not bad, f"{len(bad)} of {len(cases)} differ; first: {bad[0]}"


def test_golden_eggbox(tmp_path):
    cases = [c for c in _load()["cases"] if c["set"] is None]
    assert cases
    bad = _mismatches(cases, tmp_path)
    assert not bad, f"{len(bad)} of {len(cases)} differ; first: {bad[0]}"


# -- recording ------------------------------------------------------------------------

WIDE = 2**60


def _statements():
    """The recorded statements: seeded random instances of each form plus fixed edge cases."""
    from cofinj import bicyclic
    from cofinj.almost import random_almost
    from cofinj.core import IdempotentGaps, random_element, shift

    rng = random.Random(20261018)

    def mono():
        r = rng.random()
        if r < 0.15:
            return shift(rng.randint(-4, 4))
        if r < 0.3:
            return IdempotentGaps(rng.sample(range(-5, 6), rng.randint(1, 3))).to_element()
        if r < 0.4:
            return bicyclic.gen(rng.randint(-3, 3), rng.choice("+-"), rng.choice("pq"))
        return random_element(rng, 2, 2)

    def am(long=False):
        if long:
            return random_almost(rng, max_offset=3, window=12, max_middle=10)
        return random_almost(rng)

    def elem():
        return am() if rng.random() < 0.5 else mono()

    def t(e):
        return e.to_text()

    def pins(e, n=2):
        pts = [x for x in range(-6, 7) if e(x) is not None]
        return ", ".join(str(p) for p in sorted(rng.sample(pts, min(n, len(pts)))))

    def gapset():
        g = sorted(rng.sample(range(-4, 5), rng.randint(0, 2)))
        return "E{" + ",".join(map(str, g)) + "}"

    out = []
    for _ in range(5):
        a, b, x, y = mono(), mono(), am(), am()
        out += [
            f"{t(a)} * {t(b)}",
            f"{t(x)} * {t(a)}",
            f"{t(a)} * {t(x)}",
            f"{t(x)} * {t(y)}",
            f"{t(am(True))} * {t(am(True))} * {t(mono())}",
            f"{t(a)}^-1",
            f"{t(x)}^-1",
            f"({t(x)} * {t(y)})^-1^-1",
        ]
        for op in ("~R", "~L", "~H", "~mg"):
            out.append(f"{t(elem())} {op} {t(elem())}")
        out += [
            f"{gapset()} <= {gapset()}",
            f"({t(a)}, {t(x)})",
            f"{{{t(a)}, {t(x)}, {t(elem())}, {t(y)}}}",
            f"h({t(a)})",
            f"h({t(x)})",
            f"F_min({t(x)})",
            f"F_min({t(am(True))})",
            f"F_min({t(a)})",
        ]
        n, sgn = rng.randint(-3, 3), rng.choice("+-")
        word = "*".join(f"{rng.choice('ab')}{sgn}({n})" for _ in range(rng.randint(1, 6)))
        out.append(f"nf({word})")
        for c in (a, x):
            out += [
                f"nbhd({t(c)}; {pins(c)})",
                f"nbhd_h({t(c)}; {pins(c)})",
                f"in(nbhd({t(c)}; {pins(c)}), {t(elem())})",
                f"in(nbhd_h({t(c)}; {pins(c, 1)}), {t(c)})",
            ]
        for p, q in ((a, b), (x, a), (a, y), (x, y)):
            prod = p * q
            out.append(f"cover({t(p)}, {t(q)}; {pins(prod)})")
        # the sampling forms draw from the evaluator's random state
        out += [
            f"sample(nbhd({t(a)}; {pins(a)}))",
            f"sample(nbhd({t(x)}; {pins(x)}))",
            f"sample(nbhd_h({t(x)}; {pins(x)}))",
            f"sample(nbhd_h({t(a)}; {pins(a)}))",
            f"audit_cover({t(a)}, {t(x)}; {pins(a * x)})",
            f"audit_inv({t(x)}; {pins(x)})",
            f"audit_sep({t(a)}, {t(x)})",
        ]
    # solve in both monoids; small instances keep the solution sets short
    for _ in range(6):
        g = gapset()
        out.append(f"solve {g}*? = {g}")
        a, y = mono(), mono()
        out.append(f"solve ?*{t(a)} = {t(y)}*{t(a)}")
        x = random_almost(rng, max_offset=1, window=2, max_middle=3)
        z = random_almost(rng, max_offset=1, window=2, max_middle=3)
        out.append(f"solve {t(x)}*? = {t(x)}*{t(z)}")
        out.append(f"solve ?*{t(x)} = {t(z)}*{t(x)}")
        out.append(f"solve {t(x)}*? = {t(z)}")
    # products with shifts up to 2^60 on either side of almost elements
    for k in (1, 7, 10**6, 10**12, WIDE - 1, WIDE, -WIDE):
        x = am()
        out += [
            f"shift({k}) * {t(x)} * shift({-k})",
            f"{t(x)} * shift({k})",
            f"shift({k}) * {t(x)}",
            f"(shift({k}) * {t(x)})^-1",
            f"h(shift({k}) * {t(x)})",
            f"F_min(shift({k}) * {t(x)} * shift({k}))",
            f"(shift({k}) * {t(x)}) ~R {t(x)}",
            f"(shift({k}) * {t(x)}) ~L ({t(x)} * shift({k}))",
            f"(shift({k}) * {t(x)} * shift({-k})) ~mg {t(x)}",
            f"in(nbhd({t(x)}; {pins(x)}), shift({k}) * {t(x)} * shift({-k}))",
            f"solve shift({k})*? = shift({k}) * {t(x)}",
        ]
    out += [
        f"am[d={-WIDE},L=0,u={WIDE},R=0; 0->1, 1->0]",
        f"am[d=-1,L={WIDE},u=2,R={WIDE}; 0->{WIDE + 1}, 1->{WIDE}]",
        f"am[d=-1,L={-WIDE},u=2,R={WIDE}; 0->5, 1->3]",
        f"am[d=-1,L={-WIDE},u=2,R={WIDE}; 0->5, 1->3] * am[d=0,L=0,u=8,R=0; 3->4, 5->3]",
        f"am[d=-1,L={-WIDE},u=2,R={WIDE}; 0->5, 1->3]^-1",
        f"F_min(am[d=-1,L={-WIDE},u=2,R={WIDE}; 0->5, 1->3])",
    ]
    # non-canonical literals: windows that shrink, total translations, monotone middles
    out += [
        "am[d=-3,L=0,u=3,R=0; -2->-2, 2->2]",
        "am[d=-3,L=0,u=3,R=0; -2->-2, -1->-1, 0->0, 1->1, 2->2]",
        "am[d=-2,L=1,u=2,R=1; -1->0, 0->1, 1->2]",
        "am[d=5,L=2,u=6,R=2;]",
        "am[d=-9,L=2,u=-8,R=2;]",
        "am[d=0,L=0,u=1,R=0;]",
        "am[d=0,L=3,u=1,R=3;]",
        "am[d=-5,L=0,u=5,R=0; -4->-4, 0->1, 4->4]",
        "am[d=-4,L=1,u=5,R=0; -3->-2, -2->-1, 3->3, 4->4]",
        "am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4]",
        "am[d=0,L=0,u=6,R=0; 3->4, 2->3, 1->5]",
        "am[ d = 0 , L = 0 , u = 4 , R = 0 ; 1 -> 2 , 2 -> 1 ]",
        "am[d=0,L=0,u=4,R=0; 1->1, 3->3]",
        "am[d=0,L=-1,u=4,R=1; 1->0, 2->1]",
        "am[d=0,L=0,u=4,R=0; 1->2, 2->1] * am[d=0,L=0,u=4,R=0; 1->2, 2->1]",
        "am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4] * am[d=0,L=0,u=6,R=0; 1->5, 2->3, 3->4]^-1",
        "{am[d=0,L=0,u=1,R=0;], id, am[d=-2,L=0,u=2,R=0; -1->-1, 1->1], E{0}}",
        "h(am[d=0,L=3,u=1,R=3;])",
        "am[d=0,L=3,u=1,R=3;] ~H shift(3)",
        "nbhd(am[d=0,L=3,u=1,R=3;]; 0)",
        "nbhd_h(am[d=0,L=3,u=1,R=3;]; 0, 4)",
        "sample(nbhd(am[d=0,L=3,u=1,R=3;]; 0))",
        "sample(nbhd_h(am[d=0,L=3,u=1,R=3;]; 0))",
        "sample(nbhd(am[d=-2,L=0,u=3,R=1; 0->5, 2->-1]; 0, 2))",
        "audit_inv(am[d=0,L=3,u=1,R=3;]; 0)",
        "audit_sep(am[d=0,L=3,u=1,R=3;], shift(3))",
        "audit_sep(am[d=0,L=3,u=1,R=3;], am[d=0,L=0,u=4,R=0; 1->2, 2->1])",
        "audit_cover(am[d=0,L=0,u=4,R=0; 1->2, 2->1], am[d=0,L=3,u=1,R=3;]; 1, 2)",
        "cover(am[d=0,L=0,u=4,R=0; 1->2, 2->1], E{5}; 1, 2)",
        "solve am[d=0,L=0,u=4,R=0; 1->2, 2->1]*? = id",
        "solve E{0}*? = am[d=-1,L=0,u=2,R=0; 0->1]",
        "solve ?*E{0} = E{0}",
        "solve seg[(-inf..0,+0),(1..+inf,+3)]*? = seg[(-inf..0,+0),(1..+inf,+3)]",
        "solve ?*am[d=0,L=0,u=4,R=0; 1->2] = am[d=0,L=0,u=4,R=0; 1->2]",
        "a+(0)*b+(0)",
        "b+(2)*a+(2)*am[d=0,L=0,u=4,R=0; 1->2, 2->1]",
        "a-(1)*b-(1) ~mg id",
    ]
    # invalid literals and statements: every error path and its message
    out += [
        "am[d=0,L=0,u=3,R=0; 1->1, 1->2]",
        "am[d=0,L=0,u=3,R=0; 1->2, 1->1]",
        "am[d=0,L=0,u=3,R=0; 1->1, 1->2, x]",
        "am[d=0,L=0,u=3,R=0; x, 1->1, 1->2]",
        "am[d=5,L=0,u=0,R=0; 1->1, 1->1]",
        "am[d=5,L=0,u=0,R=0; 1->]",
        "am[d=0,L=0,u=3,R=0; 5->1]",
        "am[d=0,L=0,u=3,R=0; 1->0]",
        "am[d=0,L=0,u=3,R=0; 1->3]",
        "am[d=3,L=0,u=3,R=0;]",
        "am[d=0,L=5,u=1,R=0;]",
        "am[d=0,L=0,u=4,R=0; 1->2, 2->2]",
        "am[d=0,L=0,u=3,R=0; 1->]",
        "am[d=0,L=0,u=3,R=0; 1-2]",
        "am[d=0,L=0,u=3;]",
        "am[d=0,L=0,u=3,R=0]",
        "am[d=0,L=0,u=3,R=0; 1->1,]",
        "seg[(-inf..0,+0),(0..+inf,+1)]",
        "seg[(-inf..0,+0)]",
        "E{1,x}",
        "shift(2) *",
        "solve id = id",
        "foo(1)",
        "? * id",
        "id *",
        "(id, id, id)",
        "shift(id)",
        "h(true)",
        "in(id, id)",
        "nbhd(E{0}; 0)",
        "nbhd(am[d=0,L=0,u=3,R=0; 1->2]; 2)",
        "solve id*?*id = id",
        "solve ?*id*? = id",
        "E{0} <= shift(1)",
        "sample(id)",
        "id ~R 3",
        "audit_sep(id, id)",
        "audit_sep(am[d=0,L=0,u=1,R=0;], id)",
        "cover(id, E{0}; 0)",
        "cover(am[d=0,L=0,u=3,R=0; 1->2], am[d=0,L=0,u=3,R=0; 1->2]; 1)",
        "nf(id)",
        "nf(a+(0)*a-(0))",
        "F_min(3)",
        "3^-1",
        "true * id",
    ]
    return out


def _record_set(stmts, fmt, seed):
    cases = []
    ok = []
    for s in stmts:
        argv = ["--eval", s, "--format", fmt, "--seed", str(seed)]
        rc, out, err = run_cli(argv)
        cases.append({"set": [fmt, seed], "argv": argv, "script": None, "rc": rc, "stdout": out, "stderr": err})
        if rc == 0:
            ok.append(s)
    # a script stops at its first failing statement, so it runs the statements that succeed
    script = "# cli golden transcript\n" + "".join(s + "\n" for s in ok)
    argv = ["--script", SCRIPT_ARG, "--format", fmt, "--seed", str(seed)]
    rc, out, err = run_cli_script(argv, script)
    cases.append({"set": [fmt, seed], "argv": argv, "script": script, "rc": rc, "stdout": out, "stderr": err})
    return cases


def run_cli_script(argv, script):
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "golden.cfj")
        with open(path, "w") as fh:
            fh.write(script)
        argv = list(argv)
        argv[argv.index(SCRIPT_ARG)] = path
        return run_cli(argv)


def record():
    stmts = _statements()
    cases = []
    for fmt, seed in SETS:
        cases += _record_set(stmts, fmt, seed)
    for spec in ("3,3", "1,0", "5,1"):
        argv = ["--eggbox", spec]
        rc, out, err = run_cli(argv)
        cases.append({"set": None, "argv": argv, "script": None, "rc": rc, "stdout": out, "stderr": err})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump({"statements": len(stmts), "cases": cases}, fh, indent=0)
        fh.write("\n")
    failed = sum(1 for c in cases if c["rc"] != 0)
    print(f"{len(stmts)} statements, {len(cases)} cases, {failed} with a nonzero exit code")


if __name__ == "__main__":
    sys.exit(record())
