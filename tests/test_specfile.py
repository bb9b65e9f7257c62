"""Key-value experiment specs: parsing, sweeps, and their guard rails."""

import pytest

from sawtoothlab.specfile import SpecError, load_spec, parse_spec

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


def test_non_sweepable_key_rejected():
    with pytest.raises(SpecError, match="cannot be swept"):
        parse_spec(BASE + "lr = 0.01, 0.02\n")


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
        assert spec.settings["probe"] is expected


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
    for optimizer in ("adam", "rmsprop"):
        with pytest.raises(SpecError, match=f"beta2 must be < 1 for {optimizer}"):
            parse_spec(BASE + f"optimizer = {optimizer}\nbeta2 = 0.999, 1.0\n")
    # only Adam applies weight decay; the others would record and ignore it
    for optimizer in ("rmsprop", "sgd"):
        with pytest.raises(SpecError, match="weight_decay applies to adam only"):
            parse_spec(BASE + f"optimizer = {optimizer}\nweight_decay = 0.1\n")


def test_runner_settings():
    spec = parse_spec(BASE + "workers = 3\nwindow = 25\nout = results/here\n")
    assert spec.workers == 3
    assert spec.window == 25
    assert spec.out == "results/here"
    with pytest.raises(SpecError, match="workers must be >= 1"):
        parse_spec(BASE + "workers = 0\n")
    # BASE ends on line 7, so the window setting sits on line 8
    for bad in ("0", "-3"):
        with pytest.raises(SpecError, match=r"spec:8: window must be >= 1"):
            parse_spec(BASE + f"window = {bad}\n")


def test_load_spec_reads_file(tmp_path):
    p = tmp_path / "exp.spec"
    p.write_text(BASE + "beta2 = 0.999, 0.9\n")
    spec = load_spec(p)
    assert spec.num_points() == 2
    bad = tmp_path / "bad.spec"
    bad.write_text("nonsense = 1\n")
    with pytest.raises(SpecError, match=str(bad)):
        load_spec(bad)
