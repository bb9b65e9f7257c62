"""Key-value experiment specs: parsing, sweeps, and their guard rails."""

import itertools
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sawtoothlab import specfile
from sawtoothlab.specfile import SpecError, load_spec, parse_spec
from sawtoothlab.trainer import RunConfig

BASE = """
# comment line
name = demo
num_functions = 100   # trailing comment
dim = 50
epochs = 2
tracked_batch = 0
"""


def test_parse_scalars_and_expand_single_point():
    spec = parse_spec(BASE)
    assert spec.name == "demo"
    assert spec.num_points() == 1
    [(label, cfg)] = spec.expand()
    assert label == "point_000"
    assert cfg.num_functions == 100
    assert cfg.dim == 50
    assert cfg.num_epochs == 2  # 'epochs' renames onto the config field
    assert cfg.lr == 0.06  # untouched defaults survive


def test_sweep_cross_product_and_labels():
    spec = parse_spec(BASE + "beta2 = 0.999, 0.9\nepsilon = 1e-8, 1e-5\n")
    assert spec.num_points() == 4
    points = spec.expand()
    labels = [label for label, _ in points]
    assert labels[0] == "point_000_beta2=0.999_epsilon=1e-08"
    assert len(set(labels)) == 4
    combos = {(cfg.beta2, cfg.epsilon) for _, cfg in points}
    assert combos == {(0.999, 1e-8), (0.999, 1e-5), (0.9, 1e-8), (0.9, 1e-5)}


def test_policy_sweep_is_string_valued():
    spec = parse_spec(BASE + "policy = shuffle, fixed\n")
    policies = [cfg.policy for _, cfg in spec.expand()]
    assert policies == ["shuffle", "fixed"]


def test_sweep_cap_enforced():
    text = BASE + "beta2 = 0.1, 0.2, 0.3\nepsilon = 1e-8, 1e-7\nsweep_cap = 5\n"
    spec_ok = parse_spec(BASE + "sweep_cap = 5\n")
    assert spec_ok.sweep_cap == 5
    with pytest.raises(SpecError, match="above the cap"):
        parse_spec(text)


def test_any_config_key_sweeps():
    # a renamed key sweeps too, and its label keeps the spec's name
    text = BASE.replace("epochs = 2", "epochs = 1, 2")
    text += "lr = 0.01, 0.02\nseed = 3, 4\noptimizer = adam, sgd\nsweep_cap = 16\n"
    points = parse_spec(text).expand()
    assert points[0][0] == "point_000_epochs=1_lr=0.01_seed=3_optimizer=adam"
    assert points[-1][0] == "point_015_epochs=2_lr=0.02_seed=4_optimizer=sgd"
    combos = [(cfg.num_epochs, cfg.lr, cfg.seed, cfg.optimizer) for _, cfg in points]
    assert combos == list(itertools.product((1, 2), (0.01, 0.02), (3, 4), ("adam", "sgd")))
    # the pinned keys hold at every point
    assert {(cfg.num_functions, cfg.dim, cfg.tracked_batch) for _, cfg in points} == {(100, 50, 0)}


def test_each_point_is_built_from_its_own_values():
    # the default tracked_batch of 100 is out of range for 50 functions, but
    # no point uses it, so the spec is valid
    points = parse_spec("num_functions = 50\ntracked_batch = 1, 2\n").expand()
    assert [(label, cfg.tracked_batch) for label, cfg in points] == [
        ("point_000_tracked_batch=1", 1),
        ("point_001_tracked_batch=2", 2),
    ]


def test_duplicate_and_unknown_and_empty_keys():
    with pytest.raises(SpecError, match="duplicate key"):
        parse_spec(BASE + "dim = 60\n")
    with pytest.raises(SpecError, match="unknown key"):
        parse_spec(BASE + "learningrate = 0.1\n")
    with pytest.raises(SpecError, match="empty value"):
        parse_spec(BASE + "beta1 =\n")
    with pytest.raises(SpecError, match="expected 'key = value'"):
        parse_spec("just words\n")


def test_error_message_carries_line_number():
    with pytest.raises(SpecError, match=r"myspec:2"):
        parse_spec("name = x\nbogus = 1\n", source="myspec")


def test_bad_values_rejected():
    with pytest.raises(SpecError, match="bad value"):
        parse_spec(BASE + "beta2 = fast\n")
    with pytest.raises(SpecError, match="bad value"):
        parse_spec(BASE + "seed = 3.5\n")
    with pytest.raises(SpecError, match="not a boolean"):
        parse_spec(BASE + "probe = maybe\n")


def test_booleans_accept_common_spellings():
    for raw, expected in (("yes", True), ("FALSE", False), ("1", True), ("off", False)):
        spec = parse_spec(BASE + f"probe = {raw}\n")
        assert spec.axes["probe"] == [expected]
        assert spec.expand()[0][1].probe is expected


def test_emit_validation():
    spec = parse_spec(BASE + "emit = csv, svg\n")
    assert spec.emit == ("csv", "svg")
    with pytest.raises(SpecError, match="emit must be drawn from"):
        parse_spec(BASE + "emit = csv, png\n")


def test_repeated_sweep_values_rejected():
    with pytest.raises(SpecError, match="repeat"):
        parse_spec(BASE + "beta2 = 0.9, 0.9\n")


def test_invalid_config_surfaces_as_spec_error():
    # the expansion dry-runs the config, so field-level validation fires here
    with pytest.raises(SpecError, match="num_epochs"):
        parse_spec("epochs = 0\n")
    # every sweep point is validated, so a bad one fails before any runs
    with pytest.raises(SpecError, match="lr must be positive"):
        parse_spec(BASE + "lr = 0\n")
    with pytest.raises(SpecError, match="beta1"):
        parse_spec(BASE + "beta1 = 0.9, 1.0\n")
    with pytest.raises(SpecError, match="batch_size"):
        parse_spec(BASE + "batch_size = 10, 101\n")
    with pytest.raises(SpecError, match="epsilon must be positive"):
        parse_spec(BASE + "epsilon = 1e-8, 0\n")
    with pytest.raises(SpecError, match="tracked_batch"):
        parse_spec("num_functions = 800\nbatch_size = 1, 8\n")
    # numpy would reject a negative seed only once its point ran
    for key in ("seed", "problem_seed"):
        with pytest.raises(SpecError, match=f"spec: {key} must be >= 0, got -1"):
            parse_spec(BASE + f"{key} = -1\n")
    with pytest.raises(SpecError, match="spec: seed must be >= 0, got -1"):
        parse_spec(BASE + "seed = 3, -1\n")
    # these parsed and ran, to a DIVERGED flag or, for epsilon, to no training
    for key in ("lr", "epsilon", "weight_decay"):
        with pytest.raises(SpecError, match=f"spec: {key} must be .* finite, got inf"):
            parse_spec(BASE + f"{key} = inf\n")
    with pytest.raises(SpecError, match="spec: lr must be positive and finite, got inf"):
        parse_spec(BASE + "lr = 0.06, inf\n")
    with pytest.raises(SpecError, match="spec: x_init must be finite"):
        parse_spec(BASE + "x_init = nan\n")
    with pytest.raises(SpecError, match="spec: divergence_ceiling must be positive, got nan"):
        parse_spec(BASE + "divergence_ceiling = nan\n")
    parse_spec(BASE + "divergence_ceiling = inf\n")
    for optimizer in ("adam", "rmsprop"):
        with pytest.raises(SpecError, match=f"beta2 must be < 1 for {optimizer}"):
            parse_spec(BASE + f"optimizer = {optimizer}\nbeta2 = 0.999, 1.0\n")
    # only Adam applies weight decay; the others would record and ignore it
    for optimizer in ("rmsprop", "sgd"):
        with pytest.raises(SpecError, match="weight_decay applies to adam only"):
            parse_spec(BASE + f"optimizer = {optimizer}\nweight_decay = 0.1\n")
    # a bad policy or dim used to fail only when its point ran
    with pytest.raises(SpecError, match="unknown policy 'bogus'"):
        parse_spec(BASE + "policy = shuffle, bogus\n")
    with pytest.raises(SpecError, match="dim must be >= 1"):
        parse_spec(BASE.replace("dim = 50", "dim = 0"))
    # BASE runs 2 epochs, so only epochs 1 and 2 can be probed
    for epoch in (0, 3, 99):
        with pytest.raises(SpecError, match="epoch_start_probe_epoch must lie in"):
            parse_spec(BASE + f"epoch_start_probe = {epoch}\n")
    parse_spec(BASE + "epoch_start_probe = 2\n")


def test_runner_settings():
    spec = parse_spec(BASE + "workers = 3\nwindow = 25\nout = results/here\n")
    assert spec.workers == 3
    assert spec.window == 25
    assert spec.out == "results/here"
    with pytest.raises(SpecError, match="workers must be >= 1"):
        parse_spec(BASE + "workers = 0\n")
    # BASE ends on line 7, so the setting sits on line 8
    for key in ("window", "sweep_cap"):
        for bad in ("0", "-3"):
            with pytest.raises(SpecError, match=rf"spec:8: {key} must be >= 1"):
                parse_spec(BASE + f"{key} = {bad}\n")


def test_load_spec_reads_file(tmp_path):
    p = tmp_path / "exp.spec"
    p.write_text(BASE + "beta2 = 0.999, 0.9\n")
    spec = load_spec(p)
    assert spec.num_points() == 2
    bad = tmp_path / "bad.spec"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(SpecError, match=str(bad)):
        load_spec(bad)


# The typed key sets the parser declared before it read the keys off the
# RunConfig and ExperimentSpec annotations; the accepted keys and their
# types must stay these.
_KEYS_BY_TYPE = {
    float: ("lr", "beta1", "beta2", "epsilon", "weight_decay", "x_init", "divergence_ceiling"),
    int: (
        "num_functions", "dim", "epochs", "seed", "problem_seed", "batch_size",
        "tracked_batch", "probe_stride", "epoch_start_probe", "window", "sweep_cap",
        "workers",
    ),
    bool: ("probe", "bias_correction", "initial_shuffle"),
    str: ("name", "optimizer", "policy", "out"),
}
# (a value of the type, a value that is not) for each type
_VALUES_BY_TYPE = {float: ("2.5", "fast"), int: ("2", "2.5"), bool: ("on", "2"), str: ("x y", None)}
_RUNNER_KEYS = {"name", "out", "sweep_cap", "workers", "window", "emit"}
_RENAMES = {"num_epochs": "epochs", "epoch_start_probe_epoch": "epoch_start_probe"}


def _unknown(key: str) -> bool:
    try:
        parse_spec(f"{key} = 1\n")
    except SpecError as exc:
        return "unknown key" in str(exc)
    return False


def test_accepted_keys_are_the_config_fields_plus_the_runner_keys():
    config_keys = {_RENAMES.get(f.name, f.name) for f in fields(RunConfig)}
    assert config_keys.isdisjoint(_RUNNER_KEYS)
    expected = config_keys | _RUNNER_KEYS
    assert len(expected) == 27
    assert expected == {k for keys in _KEYS_BY_TYPE.values() for k in keys} | {"emit"}
    candidates = expected | set(_RENAMES) | {"settings", "sweeps", "learningrate"}
    assert {key for key in candidates if not _unknown(key)} == expected


@pytest.mark.parametrize(
    "key, kind", [(key, kind) for kind, keys in _KEYS_BY_TYPE.items() for key in keys]
)
def test_each_key_keeps_its_type(key, kind):
    good, bad = _VALUES_BY_TYPE[kind]
    value = specfile._convert(key, good, "spec", 1)
    assert type(value) is kind
    if bad is not None:
        with pytest.raises(SpecError, match=rf"spec:1: bad value for {key}"):
            specfile._convert(key, bad, "spec", 1)


# sweep values valid at every combination with BASE (100 functions, tracked batch 0)
_AXIS_VALUES = {
    "beta1": (0.0, 0.5, 0.9, 0.95),
    "beta2": (0.9, 0.99, 0.999),
    "epsilon": (1e-8, 1e-5, 1e-3),
    "batch_size": (1, 2, 4, 10),
    "policy": ("shuffle", "fixed", "reverse", "replacement"),
    "seed": (0, 1, 12, 2**32 - 1),
    "problem_seed": (0, 5, 13),
    "dim": (1, 7, 50, 1000),
    "optimizer": ("adam", "rmsprop", "sgd"),
}


@st.composite
def _sweeps(draw):
    # at most four axes keep a grid at 256 points
    keys = draw(st.lists(st.sampled_from(list(_AXIS_VALUES)), unique=True, max_size=4))
    return {
        key: draw(st.lists(st.sampled_from(_AXIS_VALUES[key]), unique=True, min_size=1))
        for key in keys
    }


def _sweep_text(sweeps: dict) -> str:
    """BASE without the lines of the swept keys it pins, then one line per axis."""
    pinned = [line for line in BASE.splitlines() if line.partition("=")[0].strip() not in sweeps]
    axes = [f"{key} = {', '.join(map(str, values))}" for key, values in sweeps.items()]
    return "\n".join(pinned + axes) + "\n"


@settings(max_examples=60, deadline=None)
@given(_sweeps())
def test_num_points_is_the_product_of_the_axes(sweeps):
    product = math.prod(len(values) for values in sweeps.values())
    spec = parse_spec(_sweep_text(sweeps) + f"sweep_cap = {product}\n")
    assert spec.num_points() == product
    points = spec.expand()
    assert len(points) == product
    assert len({label for label, _ in points}) == product
    # every combination appears once, and the first axis varies slowest
    combos = [tuple(getattr(cfg, key) for key in sweeps) for _, cfg in points]
    assert combos == list(itertools.product(*sweeps.values()))


@settings(max_examples=40, deadline=None)
@given(_sweeps().filter(lambda s: math.prod(len(v) for v in s.values()) > 1))
def test_going_above_the_sweep_cap_raises(sweeps):
    product = math.prod(len(values) for values in sweeps.values())
    with pytest.raises(SpecError, match=f"sweep has {product} points, above the cap"):
        parse_spec(_sweep_text(sweeps) + f"sweep_cap = {product - 1}\n")


# one bad line each, and the message it must raise
_BAD_LINES = (
    ("just words", "expected 'key = value'"),
    ("learningrate = 0.1", "unknown key"),
    ("dim = 60", "duplicate key"),
    ("lr =", "empty value"),
    ("seed = 3.5", "bad value for seed"),
    ("probe = maybe", "not a boolean"),
    ("beta2 = 0.9, 0.9", "repeat"),
    ("emit = csv, png", "emit must be drawn from"),
    ("workers = 0", "workers must be >= 1"),
    ("window = -3", "window must be >= 1"),
    ("sweep_cap = many", "bad value for sweep_cap"),
    ("sweep_cap = 0", "sweep_cap must be >= 1"),
)
_FILLER = ("", "# a comment", "   ", "problem_seed = 4  # trailing comment", "probe_stride = 2")


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_BAD_LINES),
    st.lists(st.sampled_from(_FILLER), max_size=4),
    st.lists(st.sampled_from(_FILLER[:3]), max_size=4),
)
def test_every_line_error_names_its_line(bad, before, after):
    # filler keys appear at most once before the bad line, as a duplicate
    # filler would raise first
    before = list(dict.fromkeys(before))
    line, message = bad
    lines = BASE.splitlines() + before + [line] + after
    with pytest.raises(SpecError) as info:
        parse_spec("\n".join(lines) + "\n", source="grid.spec")
    assert message in str(info.value)
    assert str(info.value).startswith(f"grid.spec:{len(BASE.splitlines()) + len(before) + 1}: ")
