"""The communication-net lowering and the PM08x structural checks.

Each ``net_*`` fixture seeds exactly one structural defect; the tests
assert the exact PM08x code, severity, and line.  The paper's models
(EM3D, ParallelAxB, Jacobi) and the example models (ring, pipeline) must
unroll cleanly — no PM08x errors or warnings at the probe binding.
``TestCoverage`` pins PM082, the scheme-covers-its-volumes check, on
hand-built bound models at fixed bindings.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.apps.em3d.model import EM3D_MODEL_SOURCE, em3d_model
from repro.apps.jacobi.model import JACOBI_MODEL_SOURCE
from repro.apps.matmul import bind_matmul_model, heterogeneous_distribution
from repro.apps.matmul.model import MM_MODEL_SOURCE, make_get_processor
from repro.perfmodel import (
    CallableModel,
    MatrixModel,
    check_net,
    check_source,
    compile_model,
    lower_model,
)
from repro.perfmodel.diagnostics import Severity
from repro.perfmodel.netcheck import check_model_net, probe_bindings
from repro.util.errors import PMDLAnalysisError

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLES = Path(__file__).parent.parent.parent / "examples" / "models"

ERROR = Severity.ERROR
WARNING = Severity.WARNING

#: fixture stem -> (code, severity, line) that MUST appear in the report.
EXPECTED = {
    "net_compute_gap": ("PM082", WARNING, 9),
    "net_deadlock": ("PM080", ERROR, 12),
    "net_orphan": ("PM081", WARNING, 11),
    "net_multiplicity": ("PM082", WARNING, 9),
    "net_unreachable": ("PM083", WARNING, 15),
    "net_zero_pair": ("PM082", WARNING, 10),
}


def _check_fixture(stem: str):
    source = (FIXTURES / f"{stem}.pmdl").read_text()
    return check_source(source, target=stem, net=True)


class TestSeededNetDefects:
    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_reports_expected_diagnostic(self, stem):
        code, severity, line = EXPECTED[stem]
        report = _check_fixture(stem)
        found = [(d.code, d.severity, d.line) for d in report.diagnostics]
        assert (code, severity, line) in found, (
            f"{stem}: expected {code}/{severity}/line {line}, got {found}")

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_exactly_one_net_diagnostic(self, stem):
        report = _check_fixture(stem)
        net_codes = [d.code for d in report.diagnostics
                     if d.code.startswith("PM08")]
        assert net_codes == [EXPECTED[stem][0]]

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_strict_exit_gates_on_severity(self, stem):
        _, severity, _ = EXPECTED[stem]
        assert _check_fixture(stem).exit_code(strict=False) == (
            1 if severity >= ERROR else 0)
        assert _check_fixture(stem).exit_code(strict=True) == 1

    def test_without_net_flag_fixtures_stay_silent(self):
        # The defects are net-structural: the interval analyzer alone
        # must not (and cannot) report them.
        for stem in EXPECTED:
            source = (FIXTURES / f"{stem}.pmdl").read_text()
            report = check_source(source, target=stem)
            assert not any(d.code.startswith("PM08")
                           for d in report.diagnostics)

    def test_deadlock_gates_compilation(self):
        source = (FIXTURES / "net_deadlock.pmdl").read_text()
        from repro.perfmodel import compile_source
        with pytest.raises(PMDLAnalysisError):
            compile_source(source, net_check=True)

    def test_all_net_fixtures_have_expectations(self):
        stems = {p.stem for p in FIXTURES.glob("net_*.pmdl")}
        assert stems == set(EXPECTED)


def _matrix(node, declared, *actions):
    """A builder model with 1000-byte links on the ``declared`` pairs
    whose scheme performs ``actions`` in order: ``(percent, proc)`` is a
    compute, ``(percent, src, dst)`` a transfer."""
    links = np.zeros((len(node), len(node)))
    for pair in declared:
        links[pair] = 1000.0

    def scheme(v):
        for act in actions:
            (v.compute if len(act) == 2 else v.transfer)(*act)
    return MatrixModel(node, links, scheme=scheme)


def _matmul(l):
    speeds = np.array([[4.0, 1.0], [2.0, 3.0]])
    return bind_matmul_model(heterogeneous_distribution(12, l, speeds), 8)


UNDERCOUNTED = """
algorithm Bad(int p) {
  coord I=p;
  node {I>=0: bench*(10);};
  scheme { int i; par (i = 0; i < p; i++) 50%%[i]; };
}
"""

#: case -> (bound model factory, PM082 count, text each finding set shows)
COVERAGE = {
    "undercounted_compute": (
        lambda: compile_model(UNDERCOUNTED).bind(3), 3, ["50.0000%"]),
    "overcounted_transfer": (
        lambda: _matrix([1.0, 1.0], [(0, 1)],
                        (100.0, 0, 1), (100.0, 0, 1), (100.0, 0), (100.0, 1)),
        1, ["200.0000%"]),
    # both directions: the declared 0->1 is missing, the 1->0 is phantom
    "transfer_on_undeclared_pair": (
        lambda: _matrix([1.0, 1.0], [(0, 1)],
                        (100.0, 1, 0), (100.0, 0), (100.0, 1)),
        2, ["pair 0->1", "pair 1->0"]),
    "compute_on_zero_volume_processor": (
        lambda: _matrix([1.0, 0.0], [], (100.0, 0), (100.0, 1)),
        1, ["processor 1"]),
    "negative_percent": (
        lambda: _matrix([1.0], [], (-10.0, 0), (110.0, 0)), 1, ["negative"]),
    # self transfers count like any pair: this one moves a zero volume
    "self_pair": (
        lambda: _matrix([1.0, 1.0], [], (100.0, 0), (100.0, 1), (100.0, 0, 0)),
        1, ["pair 0->0"]),
    "callable_model_default": (
        lambda: CallableModel(3, lambda i: 5.0, lambda s, d: 64.0), 0, []),
    "em3d": (
        lambda: em3d_model().bind(
            4, 100, [400, 300, 200, 100],
            [[0, 5, 0, 3], [5, 0, 2, 0], [0, 2, 0, 1], [3, 0, 1, 0]]),
        0, []),
    "matmul_l4": (lambda: _matmul(4), 0, []),
    "matmul_l6": (lambda: _matmul(6), 0, []),
    "matmul_l12": (lambda: _matmul(12), 0, []),
}


class TestCoverage:
    @pytest.mark.parametrize("case", list(COVERAGE))
    def test_pm082_at_binding(self, case):
        build, count, texts = COVERAGE[case]
        diags = check_net(build())
        assert [d.code for d in diags] == ["PM082"] * count, diags
        assert all(d.severity is WARNING for d in diags)
        for text in texts:
            assert any(text in d.message for d in diags), (text, diags)


class TestCleanModels:
    @pytest.mark.parametrize("name,source,externals", [
        ("em3d", EM3D_MODEL_SOURCE, None),
        ("matmul", MM_MODEL_SOURCE, {"GetProcessor": make_get_processor()}),
        ("jacobi", JACOBI_MODEL_SOURCE, None),
        ("ring", (EXAMPLES / "ring.pmdl").read_text(), None),
        ("pipeline", (EXAMPLES / "pipeline.pmdl").read_text(), None),
    ])
    def test_unrolls_without_net_findings(self, name, source, externals):
        report = check_source(source, target=name, net=True,
                              externals=externals)
        net_diags = [d for d in report.diagnostics
                     if d.code.startswith("PM08")]
        assert net_diags == [], f"{name}: {net_diags}"
        assert report.ok


class TestLowering:
    def _ring_net(self, p=4):
        source = (EXAMPLES / "ring.pmdl").read_text()
        pm = compile_model(source)
        bound = pm.bind(**probe_bindings(pm, {"p": p}))
        return lower_model(bound), bound

    def test_ring_structure(self):
        net, bound = self._ring_net(4)
        transfers = [e for e in net.kept if e.is_transfer]
        computes = [e for e in net.kept if not e.is_transfer]
        assert len(transfers) == 4 and len(computes) == 4
        # par fork/join transitions plus one per kept action
        assert net.ntransitions == len(net.kept) + 2 * len(net.pars)
        assert net.nplaces > 0

    def test_receives_all_matched(self):
        net, _ = self._ring_net(4)
        matches = net.match_receives()
        assert all(v is not None for v in matches.values())

    def test_concurrency_is_par_scoped(self):
        net, _ = self._ring_net(4)
        branches = {}
        for e in net.kept:
            branches.setdefault(e.a, []).append(e)
        # Events on different par branches are concurrent; events on the
        # same branch are ordered by emission.
        a0, a1 = branches[0][0], branches[1][0]
        assert net.concurrent(a0, a1)
        same = branches[0]
        if len(same) > 1:
            assert not net.concurrent(same[0], same[1])

    def test_to_dot_shape(self):
        net, _ = self._ring_net(3)
        dot = net.to_dot(title="ring")
        assert dot.startswith('digraph "ring"')
        assert dot.rstrip().endswith("}")
        assert "shape=box" in dot and "->" in dot

    def test_probe_overrides_flow_into_dependent_dims(self):
        source = (EXAMPLES / "ring.pmdl").read_text()
        pm = compile_model(source)
        values = probe_bindings(pm, {"p": 6})
        assert values["p"] == 6
        bound = pm.bind(**values)  # dependent array dims must fit p=6
        assert bound.nproc == 6

    def test_check_model_net_skips_unbindable(self):
        pm = compile_model(MM_MODEL_SOURCE,
                           externals={"GetProcessor": make_get_processor()})
        diags = check_model_net(pm)
        assert [d for d in diags if d.code != "PM062"] == []
