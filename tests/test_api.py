"""The package's public surface: it exports exactly the names its modules
list, and every integer argument follows one rule, every float argument
another."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import blindspot
from blindspot import (
    AbstractionConfig,
    AdmissionRecord,
    CeilingCurve,
    FreqOfFreqs,
    InputError,
    LabeledStream,
    RiskWeights,
    SensorWindow,
    SweepCell,
    accuracy_ceiling,
    blind_spot_curve,
    blindness_decomposition,
    ceiling_curve,
    chance_accuracy,
    fit_edges,
    fit_energy_edges,
    geometric_distribution,
    icd_prefix_state,
    ingest_pamap2,
    make_windows,
    run_sweep,
    sample,
    tilt_bin,
    true_blind_mass,
    uniform_distribution,
    wilson_interval,
    zipf_distribution,
)
from blindspot.errors import _check_float
from blindspot.simulator import state_key
from conftest import DATA_DIR, key, table_of

MODULES = ("abstraction", "counts", "errors", "estimators", "ingest", "report", "simulator")
REPO_DIR = DATA_DIR.parent.parent
SRC_DIR = REPO_DIR / "src"


def _module(name):
    return importlib.import_module(f"blindspot.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_module_name_is_a_package_name(name):
    module = _module(name)
    for public in module.__all__:
        assert getattr(blindspot, public) is getattr(module, public), public


def test_package_list_is_the_union_of_the_module_lists():
    assert len(blindspot.__all__) == len(set(blindspot.__all__))
    union = {"__version__"}.union(*(_module(name).__all__ for name in MODULES))
    assert set(blindspot.__all__) == union


def test_import_leaves_the_cli_unloaded():
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blindspot; print('blindspot.cli' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def _bench_wrapped(module: str) -> set[str]:
    """The names ``bench/spans.py``'s ``TARGETS`` replaces on ``module``:
    imports that module keeps so the bench can wrap them."""
    targets = runpy.run_path(str(REPO_DIR / "bench" / "spans.py"))["TARGETS"]
    return {name for _, name, _ in targets.get(module, ())}


def test_every_name_the_bench_wraps_resolves():
    # ``install`` in bench/spans.py looks up each TARGETS name on its module,
    # so a name that src drops breaks the bench's --trace 1 run
    targets = runpy.run_path(str(REPO_DIR / "bench" / "spans.py"))["TARGETS"]
    assert set(targets) == {"cli", "report", "simulator"}
    pairs = [(module, attr) for module, named in targets.items() for _, attr, _ in named]
    assert pairs and [pair for pair in pairs if not hasattr(_module(pair[0]), pair[1])] == []


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.partition(".")[0]


@pytest.mark.parametrize("path", sorted((SRC_DIR / "blindspot").glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    wrapped = _bench_wrapped(path.stem)
    assert [name for name in _imported_names(tree) if name not in used | wrapped] == []


# one call per integer argument: (id, call taking the argument, the name its
# messages give, the first out-of-range value, that value's exact message);
# None when every integer is in range
_DIST = uniform_distribution(2)
_TABLE = table_of({"a": 1, "b": 3})
_CELLS = [SweepCell(family="uniform", params=(), size=2, n=2, tau=1)]
_WINDOW = SensorWindow(acc=[[0.0, 0.0, 1.0]], gyro=[[0.0, 0.0, 0.0]], label=1, sample_rate_hz=1.0)
_RECORD = AdmissionRecord("a1", ((1, "41071"),))
_TAU_RANGE = "tau must be >= 1 (a support threshold requires at least one observation), got 0"


def _stream(starts):
    zeros = np.zeros((2, 3))
    return LabeledStream(acc=zeros, gyro=zeros, labels=np.array([1, 1]), sample_rate_hz=1.0,
                         segment_starts=starts)


INTEGER_ARGUMENTS = [
    ("zipf size", lambda x: zipf_distribution(x, 1.0), "size", 0, "size must be >= 1, got 0"),
    ("geometric size", lambda x: geometric_distribution(x, 0.5), "size", 0, "size must be >= 1, got 0"),
    ("uniform size", uniform_distribution, "size", 0, "size must be >= 1, got 0"),
    ("state index", state_key, "state index", -1, "state index must be >= 0, got -1"),
    ("sample size", lambda x: sample(_DIST, x, 0), "sample size", 0, "sample size must be >= 1, got 0"),
    ("true_blind_mass tau", lambda x: true_blind_mass(_DIST, table_of({"s0": 1}, "state"), x),
     "tau", 0, _TAU_RANGE),
    ("cell size", lambda x: SweepCell("uniform", (), x, 1, 1), "size", 0, "size must be >= 1, got 0"),
    ("cell n", lambda x: SweepCell("uniform", (), 1, x, 1), "n", 0, "n must be >= 1, got 0"),
    ("cell tau", lambda x: SweepCell("uniform", (), 1, 1, x), "tau", 0, "tau must be >= 1, got 0"),
    ("sweep trials", lambda x: run_sweep(_CELLS, x, 0), "trials", 0, "trials must be >= 1, got 0"),
    ("sweep seed", lambda x: run_sweep(_CELLS, 1, x), "master seed", -1,
     "master seed must be >= 0, got -1"),
    ("tilt bins", lambda x: tilt_bin(_WINDOW, x), "tilt bins", 0, "tilt bins must be >= 1, got 0"),
    ("edge bins", lambda x: fit_energy_edges([1.0, 2.0], x), "bins", 0, "bins must be >= 1, got 0"),
    ("config tilt_bins", lambda x: AbstractionConfig(tilt_bins=x), "tilt_bins", 0,
     "tilt_bins must be >= 1, got 0"),
    ("config energy_bins", lambda x: AbstractionConfig(energy_bins=x), "energy_bins", 0,
     "energy_bins must be >= 1, got 0"),
    ("config rate_bins", lambda x: AbstractionConfig(rate_bins=x), "rate_bins", 0,
     "rate_bins must be >= 1, got 0"),
    ("prefix_len", lambda x: icd_prefix_state(_RECORD, x), "prefix_len", 0,
     "prefix_len must be >= 1, got 0"),
    ("segment start", lambda x: _stream([x]), "segment start", -1,
     "segment starts [-1] must index the 2 samples"),
    ("top_k", lambda x: blindness_decomposition(_TABLE, 2, top_k=x), "top_k", 0,
     "top_k must be >= 1, got 0"),
    ("number of classes", chance_accuracy, "number of classes", 0,
     "number of classes must be >= 1, got 0"),
    ("successes", lambda x: wilson_interval(x, 5), "successes", -1,
     "successes must lie in [0, trials]; got -1 of 5"),
    ("trials", lambda x: wilson_interval(1, x), "trials", 0, "trials must be >= 1, got 0"),
    ("f key", lambda x: FreqOfFreqs(f={x: 1}), "frequency-of-frequencies entry",
     0, "frequency-of-frequencies entries must be >= 1, got f[0]=1"),
    ("f value", lambda x: FreqOfFreqs(f={1: x}), "frequency-of-frequencies entry",
     0, "frequency-of-frequencies entries must be >= 1, got f[1]=0"),
    ("subject id", lambda x: ingest_pamap2([], [x]), "subject id", None, None),
]
_RANGED = [case for case in INTEGER_ARGUMENTS if case[3] is not None]
# None is top_k's "no cap", so not a bad value there
_NON_INTEGERS = [(case, bad) for case in INTEGER_ARGUMENTS for bad in (2.5, "3", None)
                 if not (bad is None and case[0] == "top_k")]


@pytest.mark.parametrize("case,bad", _NON_INTEGERS,
                         ids=[f"{case[0]}-{type(bad).__name__}" for case, bad in _NON_INTEGERS])
def test_a_non_integer_argument_is_an_input_error_naming_it(case, bad):
    _, call, what, _, _ = case
    with pytest.raises(InputError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be an integer, got {type(bad).__name__}"


@pytest.mark.parametrize("case", _RANGED, ids=[case[0] for case in _RANGED])
def test_the_first_out_of_range_integer_keeps_its_message(case):
    _, call, _, low, message = case
    with pytest.raises(InputError) as info:
        call(low)
    assert str(info.value) == message


# one call per float argument: (id, call taking the argument, the name its
# message gives)
_CURVE = blind_spot_curve(_TABLE, 2)
FLOAT_ARGUMENTS = [
    ("risk weight", lambda x: RiskWeights({key(s="a"): x}), "risk weight"),
    ("default risk weight", lambda x: RiskWeights({}, default_weight=x), "default risk weight"),
    ("confidence", lambda x: wilson_interval(1, 5, x), "confidence"),
    ("zipf exponent", lambda x: zipf_distribution(5, x), "zipf exponent"),
    ("geometric ratio", lambda x: geometric_distribution(5, x), "geometric ratio"),
    ("window sample rate", lambda x: SensorWindow(acc=[[0.0, 0.0, 1.0]], gyro=[[0.0, 0.0, 0.0]],
                                                  label=1, sample_rate_hz=x), "sample rate"),
    ("stream sample rate", lambda x: LabeledStream(acc=np.zeros((2, 3)), gyro=np.zeros((2, 3)),
                                                   labels=np.array([1, 1]), sample_rate_hz=x),
     "sample rate"),
    ("window_s", lambda x: make_windows(_stream(()), x, 1.0), "window_s"),
    ("stride_s", lambda x: make_windows(_stream(()), 1.0, x), "stride_s"),
    ("fit_fraction", lambda x: fit_edges(AbstractionConfig(), [], x), "fit_fraction"),
    ("blind_mass", lambda x: accuracy_ceiling(x), "blind_mass"),
    ("assumed_blind_accuracy", lambda x: accuracy_ceiling(0.5, x), "assumed_blind_accuracy"),
    ("ceiling curve accuracy", lambda x: ceiling_curve(_CURVE, x), "assumed_blind_accuracy"),
    ("ceiling accuracy", lambda x: CeilingCurve((), x), "assumed_blind_accuracy"),
]
# text is not a number, although float() would parse "0.5"
_NON_NUMBERS = [(case, bad) for case in FLOAT_ARGUMENTS for bad in (None, "0.5", [0.5])]


@pytest.mark.parametrize("case,bad", _NON_NUMBERS,
                         ids=[f"{case[0]}-{type(bad).__name__}" for case, bad in _NON_NUMBERS])
def test_a_non_number_float_argument_is_an_input_error_naming_it(case, bad):
    _, call, what = case
    with pytest.raises(InputError) as info:
        call(bad)
    assert str(info.value) == f"{what} must be a number, got {type(bad).__name__}"


@pytest.mark.parametrize("number", [1, True, 0.5, np.float32(0.5), np.int64(2), Fraction(1, 2)],
                         ids=lambda x: type(x).__name__)
def test_any_number_is_a_float(number):
    assert _check_float(number, "x") == float(number)
    assert type(_check_float(number, "x")) is float


@pytest.mark.parametrize("text", ["0.5", b"0.5", bytearray(b"0.5")], ids=lambda x: type(x).__name__)
def test_text_is_not_a_float(text):
    with pytest.raises(InputError, match=f"^x must be a number, got {type(text).__name__}$"):
        _check_float(text, "x")
