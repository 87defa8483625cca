import pytest

from playwm.bench import EvalStudyConfig, measure_imagined
from playwm.policies import PolicyConfig, create_policy
from playwm.rng import Rng
from playwm.scene import default_scene
from playwm.tasks import TaskSpec
from playwm.worldmodel import WmConfig, create_worldmodel


def test_imagined_replan_must_match_model_chunk():
    scene = default_scene()
    wm = create_worldmodel(scene, WmConfig(hidden=16, depth=1), Rng(0))
    policy = create_policy(scene, PolicyConfig(), Rng(1))
    cfg = EvalStudyConfig(task=TaskSpec("put_in", 1, 0), n_wm=2, replan=wm.cfg.chunk - 1)
    with pytest.raises(ValueError, match="re-plan once per model chunk"):
        measure_imagined(policy, wm, cfg, Rng(2))
