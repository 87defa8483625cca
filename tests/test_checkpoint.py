import json
import re

import numpy as np
import pytest

from playwm.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

PARAMS = {"w": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.array([0.5, -1.5])}


@pytest.fixture
def ckpt(tmp_path):
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(path, "mlp", {"widths": [3, 2]}, PARAMS)
    with open(path, "rb") as fh:
        return path, fh.read()


def raises_naming(path, pattern):
    return pytest.raises(CheckpointError, match=re.escape(path) + ": " + pattern)


def rewrite(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def test_round_trip(ckpt):
    header, params = load_checkpoint(ckpt[0], "mlp", ("widths",))
    assert header == {"widths": [3, 2]}
    assert params.keys() == PARAMS.keys()
    for name, value in PARAMS.items():
        assert params[name].tobytes() == value.tobytes() and params[name].shape == value.shape


def test_truncated_parameter_data(ckpt):
    path, blob = ckpt
    rewrite(path, blob[:-8])
    with raises_naming(path, r".*header implies"):
        load_checkpoint(path, "mlp", ("widths",))


def test_trailing_bytes(ckpt):
    path, blob = ckpt
    rewrite(path, blob + b"\0" * 8)
    with raises_naming(path, r".*header implies"):
        load_checkpoint(path, "mlp", ("widths",))


def test_unparsable_header(ckpt):
    path, blob = ckpt
    head_len = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
    rewrite(path, blob[:12] + b"{" * head_len + blob[12 + head_len:])
    with raises_naming(path, r"unreadable checkpoint header"):
        load_checkpoint(path, "mlp", ("widths",))


def test_header_missing_fields(ckpt):
    path, blob = ckpt
    head = json.dumps({"kind": "mlp"}).encode()
    rewrite(path, blob[:4] + np.array([1, len(head)], dtype="<u4").tobytes() + head)
    with raises_naming(path, r"unreadable checkpoint header"):
        load_checkpoint(path, "mlp", ("widths",))


def test_wrong_version(ckpt):
    path, blob = ckpt
    rewrite(path, blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with raises_naming(path, r"unsupported checkpoint version 2"):
        load_checkpoint(path, "mlp", ("widths",))


@pytest.mark.parametrize("blob", [b"", b"PWCK\x01\x00", b"XXXX" + b"\0" * 16])
def test_not_a_checkpoint(tmp_path, blob):
    path = str(tmp_path / "m.ckpt")
    rewrite(path, blob)
    with pytest.raises(CheckpointError, match="not a checkpoint file"):
        load_checkpoint(path, "mlp", ("widths",))


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="missing checkpoint"):
        load_checkpoint(str(tmp_path / "none.ckpt"), "mlp", ("widths",))



def _saved_model(tmp_path, kind):
    """Save one tiny model of `kind`; return its path, a function that loads
    that path and hashes the loaded parameters, and the saved model's hash."""
    from playwm import dsrl, nets, policies, progress, worldmodel
    from playwm.rng import Rng
    from playwm.scene import default_scene

    scene = default_scene()
    path = str(tmp_path / f"{kind}.ckpt")
    if kind == "worldmodel":
        wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=8, depth=1,
                                                                     denoise_steps=25), Rng(1))
        worldmodel.save_worldmodel(wm, path)
        return path, lambda p: worldmodel.load_worldmodel(p).param_hash(), wm.param_hash()
    if kind == "policy":
        policy = policies.create_policy(scene, policies.PolicyConfig(hidden=8, depth=1,
                                                                     denoise_steps=25), Rng(2))
        policies.save_policy(policy, path)
        return path, lambda p: policies.load_policy(p).param_hash(), policy.param_hash()
    if kind == "progress":
        model = progress.ProgressModel(nets.init_mlp([6, 4, 1], Rng(3), "silu"), scene)
        progress.save_progress(model, path)
        return path, lambda p: progress.load_progress(p).net.param_hash(), model.net.param_hash()
    st = dsrl.make_dsrl(6, 3, dsrl.DsrlConfig(hidden=8, depth=1), Rng(4))
    dsrl.save_actor(st, path)

    def actor_hash(p):
        header, params = dsrl.load_actor_params(p)
        return nets.Mlp(header["widths"], "relu", params=params).param_hash()

    return path, actor_hash, st.actor.param_hash()


KINDS = ["worldmodel", "policy", "progress", "noise_actor"]


@pytest.mark.parametrize("kind", KINDS)
def test_model_round_trip(tmp_path, kind):
    path, loaded_hash, want = _saved_model(tmp_path, kind)
    assert loaded_hash(path) == want


@pytest.mark.parametrize("kind", KINDS)
def test_model_with_wrong_parameter_shape(tmp_path, kind):
    path, loaded_hash, _ = _saved_model(tmp_path, kind)
    header, params = load_checkpoint(path, kind, REQUIRED[kind])
    params["w0"] = params["w0"][:-1]
    save_checkpoint(path, kind, header, params)
    with raises_naming(path, r"parameters do not fit widths .*w0"):
        loaded_hash(path)


@pytest.mark.parametrize("kind", KINDS)
def test_model_of_another_kind(tmp_path, kind):
    path, loaded_hash, _ = _saved_model(tmp_path, kind)
    header, params = load_checkpoint(path, kind, REQUIRED[kind])
    save_checkpoint(path, "mlp", header, params)
    with raises_naming(path, f"checkpoint kind 'mlp' is not '{kind}'"):
        loaded_hash(path)


REQUIRED = {"worldmodel": ("config", "scene", "step_count", "loss_trace"),
            "policy": ("config", "scene", "train_steps_done"),
            "progress": ("widths", "scene"),
            "noise_actor": ("config", "widths")}


@pytest.mark.parametrize("kind", KINDS)
def test_model_header_missing_fields(tmp_path, kind):
    path, loaded_hash, _ = _saved_model(tmp_path, kind)
    header, params = load_checkpoint(path, kind, REQUIRED[kind])
    for name in REQUIRED[kind]:
        save_checkpoint(path, kind, {k: v for k, v in header.items() if k != name}, params)
        with raises_naming(path, f"checkpoint header lacks {name}"):
            loaded_hash(path)


def _old_physics(header):
    """A scene saved while it still held the physics, now the simulator's
    module constants."""
    header["scene"]["physics"] = {"a_max": 0.08, "r_stack": 0.04, "max_steps": 30}


def _old_scene_seed(header):
    """A scene saved before SceneConfig lost its unread seed field."""
    header["scene"]["seed"] = 0


def _old_policy_replan(header):
    """A policy saved before PolicyConfig lost its unread replan field."""
    header["config"]["replan"] = 8


def _old_wm_clip_x0(header):
    """A world model saved before WmConfig's clip_x0 became a constant."""
    header["config"]["clip_x0"] = 1.2


def _old_policy_horizon(header):
    """A policy saved before PolicyConfig's horizon became a constant."""
    header["config"]["horizon"] = 16


def _old_actor_gamma(header):
    """An actor saved before DsrlConfig's gamma became a constant."""
    header["config"]["gamma"] = 0.99


def _unknown_kind(header):
    header["scene"]["objects"][0]["kind"] = "sphere"


def _bowl_colour(header):
    header["scene"]["objects"][0]["colour"] = "red"


def _disk_without_z_level(header):
    del header["scene"]["objects"][1]["z_level"]


def _unknown_config_key(header):
    header["config"]["width"] = 3


def _steps(header):
    """The name of the header's step count: the world model's or the policy's."""
    return "step_count" if "step_count" in header else "train_steps_done"


def _steps_as_text(header):
    header[_steps(header)] = "7"


def _negative_steps(header):
    header[_steps(header)] = -4


def _fractional_steps(header):
    header[_steps(header)] = 2.5


def _trace_of_bare_steps(header):
    header["loss_trace"] = [3]


def _trace_of_text(header):
    """A string iterates as one-letter rows, which once loaded as [('a',), ('b',)]."""
    header["loss_trace"] = "ab"


@pytest.mark.parametrize("kind, spoil", [(k, f) for k in ("worldmodel", "policy", "progress")
                                         for f in (_old_physics, _old_scene_seed, _unknown_kind,
                                                   _bowl_colour, _disk_without_z_level)]
                         + [(k, f) for k in ("worldmodel", "policy")
                            for f in (_steps_as_text, _negative_steps, _fractional_steps)]
                         + [("worldmodel", _trace_of_bare_steps),
                            ("worldmodel", _trace_of_text),
                            ("worldmodel", _unknown_config_key),
                            ("policy", _unknown_config_key),
                            ("noise_actor", _unknown_config_key),
                            ("policy", _old_policy_replan),
                            ("worldmodel", _old_wm_clip_x0),
                            ("policy", _old_policy_horizon),
                            ("noise_actor", _old_actor_gamma)])
def test_model_header_that_does_not_build(tmp_path, kind, spoil):
    path, loaded_hash, _ = _saved_model(tmp_path, kind)
    header, params = load_checkpoint(path, kind, REQUIRED[kind])
    spoil(header)
    save_checkpoint(path, kind, header, params)
    with raises_naming(path, "checkpoint header does not build"):
        loaded_hash(path)


def test_step_counts_and_loss_trace_round_trip(tmp_path):
    from playwm import policies, worldmodel
    from playwm.rng import Rng
    from playwm.scene import default_scene

    scene, path = default_scene(), str(tmp_path / "m.ckpt")
    wm = worldmodel.create_worldmodel(scene, worldmodel.WmConfig(hidden=8, depth=1), Rng(1))
    wm.step_count, wm.loss_trace = 7, [(0, 1.5), (5, 0.25)]
    worldmodel.save_worldmodel(wm, path)
    loaded = worldmodel.load_worldmodel(path)
    assert (loaded.step_count, loaded.loss_trace) == (7, [(0, 1.5), (5, 0.25)])
    policy = policies.create_policy(scene, policies.PolicyConfig(hidden=8, depth=1), Rng(2))
    policy.train_steps_done = 3
    policies.save_policy(policy, path)
    assert policies.load_policy(path).train_steps_done == 3


@pytest.mark.parametrize("kind", ["worldmodel", "policy"])
def test_denoiser_load_draws_no_random_init(tmp_path, monkeypatch, kind):
    """The loaders overwrite every parameter, so they build the net without
    drawing a random initialisation to throw away."""
    from playwm import nets

    path, loaded_hash, want = _saved_model(tmp_path, kind)

    def no_init(*args, **kwargs):
        raise AssertionError("a loader called nets.init_mlp")

    monkeypatch.setattr(nets, "init_mlp", no_init)
    assert loaded_hash(path) == want
