import math
from dataclasses import astuple

import numpy as np
import pytest

from playwm import statecodec
from playwm.dynamics import GRIPPER_RADIUS, R_STACK, Action, EventKind, step
from playwm.env import Env
from playwm.render import FRAME_SIZE, object_intensity, render, render_states
from playwm.rng import Rng
from playwm.scene import (EnvState, GripperState, ObjectState, default_scene,
                          jittered_state, roster, scene_from_dict, scene_to_dict)
from playwm.tasks import (BehaviorMode, TaskSpec, check_success, classify_clip,
                          DanglingObjectError)


def simple_state(gx=0.5, gy=0.5, z=1, aperture=1.0, held=None, objects=None):
    return EnvState(
        gripper=GripperState(x=gx, y=gy, z=z, aperture=aperture, held=held),
        objects=objects if objects is not None else [
            ObjectState(1, "disk", 0.3, 0.3, 0.0, (0.035,)),
        ],
    )


class TestStep:
    def test_zero_action_no_contact_is_identity(self):
        s0 = simple_state()
        s1, event = step(s0, Action(), 0.9)
        assert event.kind == EventKind.NONE
        assert (s1.gripper.x, s1.gripper.y) == (s0.gripper.x, s0.gripper.y)
        assert (s1.objects[0].x, s1.objects[0].y) == (s0.objects[0].x, s0.objects[0].y)

    def test_grasp_miss_far_away(self):
        s0 = simple_state(gx=0.6, gy=0.3, z=0)
        s1, event = step(s0, Action(dg=-1.0), 0.9)
        assert event.kind == EventKind.GRASP_MISS
        assert s1.gripper.held is None

    def test_grasp_success_within_radius(self):
        s0 = simple_state(gx=0.31, gy=0.3, z=0)
        s1, event = step(s0, Action(dg=-1.0), 0.9)
        assert event.kind == EventKind.GRASP_SUCCESS
        assert s1.gripper.held == 1
        assert (s1.objects[0].x, s1.objects[0].y) == (s1.gripper.x, s1.gripper.y)

    def test_grasp_fate_from_noise_draw(self):
        s0 = simple_state(gx=0.3, gy=0.3, z=0)
        fated, _ = step(s0, Action(dg=-1.0), 0.01)
        clean, _ = step(s0, Action(dg=-1.0), 0.99)
        assert fated.slip_fated and not clean.slip_fated

    def test_fast_carry_slips_deterministically(self):
        s0 = simple_state(gx=0.3, gy=0.3, z=0, aperture=0.0, held=1)
        s0.objects[0].x, s0.objects[0].y = 0.3, 0.3
        s1, event = step(s0, Action(dx=0.08), 0.9)
        assert event.kind == EventKind.SLIP_DROP
        assert s1.gripper.held is None
        # dropped at the gripper position
        assert s1.objects[0].x == pytest.approx(0.38)

    def test_slow_carry_keeps_hold_even_when_fated(self):
        s0 = simple_state(gx=0.3, gy=0.3, z=1, aperture=0.0, held=1)
        s0.slip_fated = True
        s1, event = step(s0, Action(dx=0.038), 0.9)
        assert s1.gripper.held == 1
        s2, event = step(s1, Action(dx=0.05), 0.9)  # above V_FATE
        assert event.kind == EventKind.SLIP_DROP

    def test_push_moves_object_ahead(self):
        s0 = simple_state(gx=0.24, gy=0.3, z=0, aperture=0.0)
        s1, event = step(s0, Action(dx=0.05), 0.9)
        assert event.kind == EventKind.CONTACT_SLIDE
        reach = GRIPPER_RADIUS + 0.035
        d = math.hypot(s1.objects[0].x - s1.gripper.x, s1.objects[0].y - s1.gripper.y)
        assert d == pytest.approx(reach, abs=1e-9)
        assert s1.objects[0].x > 0.3

    def test_open_gripper_straddles_graspables(self):
        s0 = simple_state(gx=0.24, gy=0.3, z=0, aperture=1.0)
        s1, event = step(s0, Action(dx=0.05), 0.9)
        assert event.kind == EventKind.NONE
        assert (s1.objects[0].x, s1.objects[0].y) == (0.3, 0.3)

    def test_open_gripper_still_pushes_bowl(self):
        objs = [ObjectState(0, "bowl", 0.3, 0.3, 0.0, (0.11, 0.085))]
        s0 = simple_state(gx=0.16, gy=0.3, z=0, aperture=1.0, objects=objs)
        s1, event = step(s0, Action(dx=0.05), 0.9)
        assert event.kind == EventKind.CONTACT_SLIDE
        assert s1.objects[0].x > 0.3

    def test_collision_resolves_overlap(self):
        objs = [
            ObjectState(1, "disk", 0.30, 0.30, 0.0, (0.035,)),
            ObjectState(2, "disk", 0.36, 0.30, 0.0, (0.035,)),
        ]
        s0 = simple_state(gx=0.24, gy=0.30, z=0, aperture=0.0, objects=objs)
        s1, event = step(s0, Action(dx=0.06), 0.9)
        assert event.kind == EventKind.OBJECT_COLLISION
        d = math.hypot(s1.objects[1].x - s1.objects[0].x, s1.objects[1].y - s1.objects[0].y)
        assert d >= 0.07 - 1e-9

    def test_release_stacks_when_centered(self):
        objs = [
            ObjectState(1, "disk", 0.50, 0.50, 0.0, (0.035,)),
            ObjectState(2, "rect", 0.70, 0.70, 0.0, (0.03, 0.03)),
        ]
        s0 = simple_state(gx=0.70, gy=0.70, z=1, aperture=0.0, held=1, objects=objs)
        s0.objects[0].x, s0.objects[0].y = 0.70, 0.70
        s1, event = step(s0, Action(dg=1.0), 0.9)
        assert s1.objects[0].z_level == 1
        assert s1.gripper.held is None

    def test_release_offset_topples(self):
        objs = [
            ObjectState(1, "disk", 0.73, 0.70, 0.0, (0.035,)),
            ObjectState(2, "rect", 0.70, 0.70, 0.0, (0.03, 0.03)),
        ]
        s0 = simple_state(gx=0.73, gy=0.70, z=1, aperture=0.0, held=1, objects=objs)
        s1, event = step(s0, Action(dg=1.0), 0.9)
        assert event.kind == EventKind.STACK_TOPPLE
        assert s1.objects[0].z_level == 0
        d = math.hypot(s1.objects[0].x - 0.70, s1.objects[0].y - 0.70)
        assert d > R_STACK

    def test_towel_fold_integrates_tangential_motion(self):
        towel = ObjectState(4, "towel2link", 0.5, 0.5, 0.0, (0.085, 0.028))
        ex, ey = towel.towel_free_end()
        s0 = simple_state(gx=ex, gy=ey, z=0, objects=[towel])
        s1, event = step(s0, Action(dg=-1.0), 0.9)
        assert s1.gripper.held == 4
        # free end at pivot + L*(-1, 0); increasing fold moves it toward +y here
        s2, event = step(s1, Action(dy=0.05), 0.9)
        assert event.kind == EventKind.FOLD_CHANGE
        assert s2.objects[0].fold_angle > 0.0
        # pivot does not move
        assert (s2.objects[0].x, s2.objects[0].y) == (0.5, 0.5)

    def test_out_of_bounds_flag(self):
        objs = [ObjectState(1, "disk", 0.02, 0.5, 0.0, (0.035,))]
        s0 = simple_state(objects=objs)
        _, event = step(s0, Action(), 0.9)
        assert event.kind == EventKind.OUT_OF_BOUNDS
        assert event.oids == (1,)

    def test_object_count_conserved_under_random_actions(self):
        rng = Rng(3)
        env = Env(default_scene(), seed=1)
        n = len(env.state.objects)
        for _ in range(200):
            a = Action(dx=rng.gauss() * 0.05, dy=rng.gauss() * 0.05,
                       dz=rng.gauss(), dg=rng.gauss())
            state, _ = env.step(a)
            assert len(state.objects) == n
            for o in state.objects:
                assert 0.0 <= o.x <= 1.0 and 0.0 <= o.y <= 1.0
                assert o.z_level >= 0

    def test_trajectory_determinism(self):
        def run():
            env = Env(default_scene(), seed=7)
            rng = Rng(5)
            out = []
            for _ in range(40):
                a = Action(dx=rng.gauss() * 0.04, dy=rng.gauss() * 0.04,
                           dz=rng.gauss(), dg=rng.gauss())
                state, event = env.step(a)
                out.append((render(state).tobytes(), event.kind))
            return out

        assert run() == run()


class TestSanitize:
    EXECUTABLE = [Action(), Action(dx=0.08, dy=-0.08, dz=1.0, dg=-1.0),
                  Action(dx=0.01, dz=-1.0, dg=0.3)]
    # out of bounds, -0.0, numpy and int fields, a dz to round and a NaN dx
    OTHERS = [Action(dx=0.5, dy=-0.2, dz=0.4, dg=3.0), Action(dz=-0.0),
              Action(dx=np.float64(0.01)), Action(dz=1), Action(dg=np.float64(2.0)),
              Action(dy=0), Action(dz=-0.6), Action(dx=float("nan"))]

    @pytest.mark.parametrize("action", EXECUTABLE)
    def test_executable_action_is_returned_itself(self, action):
        assert action.sanitized() is action

    @pytest.mark.parametrize("action", EXECUTABLE + OTHERS)
    def test_sanitizing_is_idempotent(self, action):
        """Field for field, types included (repr also matches NaN to NaN)."""
        once = action.sanitized()
        assert repr(astuple(once.sanitized())) == repr(astuple(once))
        assert type(once.dz) is float and once.dz in (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("action", OTHERS)
    def test_other_actions_are_built_anew(self, action):
        assert action.sanitized() is not action

    def test_negative_zero_dz_becomes_positive_zero(self):
        assert math.copysign(1.0, Action(dz=-0.0).sanitized().dz) == 1.0

    def test_nan_dz_raises(self):
        with pytest.raises(ValueError):
            Action(dz=float("nan")).sanitized()


class TestStateCopy:
    @staticmethod
    def awkward_state():
        """A jittered scene mid-episode: a held disk, a stacked rect, a folded
        towel, a fated grasp and a negative zero."""
        s = jittered_state(default_scene(), Rng(6))
        s.gripper.held, s.gripper.z, s.gripper.aperture = 1, 0, -0.0
        s.objects[2].z_level, s.objects[4].fold_angle = 1, 2.5
        s.slip_fated = True
        return s

    def test_copy_equals_source_field_for_field(self):
        for src in (self.awkward_state(), default_scene().nominal_state()):
            dup = src.copy()
            assert TestCodec.decoded_fields(dup) == TestCodec.decoded_fields(src)
            assert dup.gripper is not src.gripper
            for a, b in zip(dup.objects, src.objects):
                assert a is not b and a.size is b.size

    def test_mutating_the_copy_leaves_the_source(self):
        src = self.awkward_state()
        before = TestCodec.decoded_fields(src)
        dup = src.copy()
        g = dup.gripper
        g.x, g.y, g.z, g.aperture, g.held = 0.1, 0.2, 1, 0.3, None
        for o in dup.objects:
            o.oid, o.kind, o.size = o.oid + 10, "disk", (0.5,)
            o.x, o.y, o.theta, o.z_level, o.fold_angle = 0.4, 0.6, 1.0, 2, 0.7
        dup.objects.append(ObjectState(9, "disk", 0.5, 0.5, 0.0, (0.03,)))
        dup.slip_fated = False
        assert TestCodec.decoded_fields(src) == before

    @pytest.mark.parametrize("record, name", [
        (GripperState(), "apperture"),
        (ObjectState(1, "disk", 0.3, 0.3, 0.0, (0.035,)), "z_lvl"),
        (EnvState(GripperState(), []), "slip_fate"),
    ])
    def test_misspelled_attribute_raises(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)

    def test_nominal_state_copies_the_templates(self):
        cfg = default_scene()
        s = cfg.nominal_state()
        assert s.objects == list(cfg.objects)
        assert s.gripper == GripperState() and s.slip_fated is False
        s.objects[0].x = 0.99
        assert cfg.objects[0].x != 0.99 and cfg.nominal_state().objects[0].x != 0.99


class TestRender:
    def test_empty_scene_only_gripper(self):
        s = EnvState(gripper=GripperState(x=0.5, y=0.5), objects=[])
        f = render(s)
        lit = f > 0
        ys, xs = np.where(lit)
        assert np.all(f[lit] == 1.0)
        # gripper blob near the center
        assert abs(xs.mean() - 31.5) < 2 and abs(ys.mean() - 31.5) < 2

    def test_purity(self):
        s = default_scene().nominal_state()
        assert render(s).tobytes() == render(s).tobytes()

    def test_disk_against_bruteforce_oracle(self):
        s = EnvState(gripper=GripperState(x=0.05, y=0.05),
                     objects=[ObjectState(1, "disk", 0.5, 0.5, 0.0, (0.1,))])
        f = render(s)
        intensity = 0.4  # id 1
        for row in range(FRAME_SIZE):
            for col in range(FRAME_SIZE):
                px = (col + 0.5) / FRAME_SIZE
                py = (row + 0.5) / FRAME_SIZE
                in_disk = (px - 0.5) ** 2 + (py - 0.5) ** 2 < 0.1 ** 2
                in_grip = (px - 0.05) ** 2 + (py - 0.05) ** 2 < (2 / FRAME_SIZE) ** 2
                want = 1.0 if in_grip else (intensity if in_disk else 0.0)
                assert f[row, col] == want, (row, col)

    @staticmethod
    def random_states(seed, n=300, one_roster=True):
        """n states, each object anywhere on or just off the table at any
        angle, fold and z-level and scaled by 0.2-5x: once for all n states
        if `one_roster`, else anew in every state. Every 50th state has an
        infinite and a NaN coordinate."""
        rng = Rng(seed)
        scene = default_scene()
        scales = [0.2 + 4.8 * rng.uniform() for _ in scene.objects] if one_roster else None
        states = []
        for i in range(n):
            s = jittered_state(scene, rng, 0.05)
            for k, o in enumerate(s.objects):
                o.x, o.y = -0.15 + 1.3 * rng.uniform(), -0.15 + 1.3 * rng.uniform()
                scale = scales[k] if one_roster else 0.2 + 4.8 * rng.uniform()
                o.size = tuple(scale * v for v in o.size)
                o.theta = 14.0 * rng.uniform() - 7.0
                o.fold_angle = math.pi * rng.uniform()
                o.z_level = rng.randint(3)
            s.gripper.x, s.gripper.y = -0.1 + 1.2 * rng.uniform(), -0.1 + 1.2 * rng.uniform()
            s.gripper.aperture = rng.uniform()
            if i % 50 == 0:
                s.objects[0].x = math.inf
                s.objects[1].y = math.nan
            states.append(s)
        return states

    def test_boxed_shape_tests_match_whole_grid(self):
        """Patch-tested frames equal shape tests over the whole grid, byte for
        byte: one frame a call over 300 states that each size their objects
        anew; 10 frames a call over 30 rosters; and over three rosters of 300
        states, drawn in one call, split where a 256-frame block ends, and one
        frame a call."""
        for i, s in enumerate(self.random_states(4, one_roster=False)):
            assert render(s).tobytes() == whole_grid_render(s).tobytes(), i
        for seed in range(100, 130):
            states = self.random_states(seed, n=10)
            want = [whole_grid_render(s).tobytes() for s in states]
            assert [f.tobytes() for f in render_states(states)] == want, seed
        for seed in (4, 5, 6):
            states = self.random_states(seed)
            want = [whole_grid_render(s).tobytes() for s in states]
            whole = render_states(states)
            split = np.concatenate([render_states(states[:256]), render_states(states[256:])])
            assert [f.tobytes() for f in whole] == want, seed
            assert [f.tobytes() for f in split] == want, seed
            assert [render(s).tobytes() for s in states] == want, seed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_off_poses_paint_nothing(self):
        """Finite poses far off the table paint nothing, without overflow,
        up to poses whose patch anchor would overflow to infinity."""
        base = default_scene().nominal_state()
        states, gone = [], []
        for far in (1e300, -1e300, 1.7e308, -1.7e308):
            for k, oid in enumerate([o.oid for o in base.objects] + [None]):
                s = base.copy()
                placed = s.objects[k] if oid is not None else s.gripper
                placed.x, placed.y = far, -far
                states.append(s)
                gone.append(object_intensity(oid) if oid is not None else 1.0)
        for s, f, value in zip(states, render_states(states), gone):
            assert f.tobytes() == whole_grid_render(s).tobytes()
            assert value not in f and np.count_nonzero(f) > 0

    def test_z_levels_reorder_a_frame(self):
        """Objects stacked at one spot paint in (z_level, oid) order, whatever
        their ids say, and each frame of a call keeps its own order."""
        states = []
        for levels in ((0, 0, 0), (2, 1, 0), (1, 2, 0), (1, 0, 1)):
            s = default_scene().nominal_state()
            s.gripper.x = s.gripper.y = 0.05
            for oid, lv in zip((1, 2, 3), levels):  # the disk and both rects
                o = s.object_by_id(oid)
                o.x, o.y, o.z_level = 0.5, 0.5, lv
            states.append(s)
        frames = render_states(states)
        assert [f[32, 32] for f in frames] == [object_intensity(oid) for oid in (3, 1, 2, 3)]
        for s, f in zip(states, frames):
            assert f.tobytes() == whole_grid_render(s).tobytes()

    def test_gripper_shade_and_held_object(self):
        """The gripper paints last, over the object it holds, at 0.9 up to an
        aperture of exactly 0.5 and at 1.0 above it."""
        states = []
        for aperture in (0.5, np.nextafter(0.5, 1.0), 0.0):
            s = default_scene().nominal_state()
            s.gripper.aperture, s.gripper.held = aperture, 1
            disk = s.object_by_id(1)
            disk.x, disk.y = s.gripper.x, s.gripper.y
            states.append(s)
        frames = render_states(states)
        assert [f[32, 32] for f in frames] == [0.9, 1.0, 0.9]
        for s, f in zip(states, frames):
            assert f.tobytes() == whole_grid_render(s).tobytes()
            assert f[33, 33] == object_intensity(1)  # the held disk shows around the gripper


# The shape tests over the whole pixel grid, as the rasterizer ran them one
# state at a time before it tested patches: the reference for its frames.
_PX, _PY = np.meshgrid((np.arange(FRAME_SIZE) + 0.5) / FRAME_SIZE,
                       (np.arange(FRAME_SIZE) + 0.5) / FRAME_SIZE)


def whole_grid_render(state):
    frame = np.zeros((FRAME_SIZE, FRAME_SIZE))
    with np.errstate(over="ignore", invalid="ignore"):  # far-off poses test as outside
        for obj in sorted(state.objects, key=lambda o: (o.z_level, o.oid)):
            if math.isfinite(obj.x) and math.isfinite(obj.y):
                frame[_whole_grid_mask(obj)] = object_intensity(obj.oid)
        g = state.gripper
        frame[(_PX - g.x) ** 2 + (_PY - g.y) ** 2 < (2.0 / FRAME_SIZE) ** 2] = \
            1.0 if g.aperture > 0.5 else 0.9
    return frame


def _whole_grid_mask(obj):
    if obj.kind == "disk":
        return (_PX - obj.x) ** 2 + (_PY - obj.y) ** 2 < obj.size[0] ** 2
    if obj.kind == "rect":
        return _whole_grid_rect(obj.x, obj.y, obj.theta, obj.size[0], obj.size[1])
    if obj.kind == "bowl":
        d2 = (_PX - obj.x) ** 2 + (_PY - obj.y) ** 2
        return (d2 < obj.size[0] ** 2) & (d2 >= obj.size[1] ** 2)
    length, half_w = obj.size
    m = _whole_grid_link(obj.x, obj.y, obj.theta, length, half_w)
    return m | _whole_grid_link(obj.x, obj.y, obj.theta + math.pi - obj.fold_angle, length,
                                half_w)


def _whole_grid_rect(cx, cy, theta, half_w, half_h):
    c, s = math.cos(theta), math.sin(theta)
    dx = _PX - cx
    dy = _PY - cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) < half_w) & (np.abs(v) < half_h)


def _whole_grid_link(pivot_x, pivot_y, phi, length, half_w):
    cx = pivot_x + 0.5 * length * math.cos(phi)
    cy = pivot_y + 0.5 * length * math.sin(phi)
    return _whole_grid_rect(cx, cy, phi, 0.5 * length, half_w)


class TestTasks:
    def test_put_in_satisfied(self):
        objs = [
            ObjectState(0, "bowl", 0.3, 0.3, 0.0, (0.11, 0.085)),
            ObjectState(1, "disk", 0.32, 0.3, 0.0, (0.035,)),
        ]
        s = simple_state(objects=objs)
        assert check_success(s, TaskSpec("put_in", 1, 0))
        s.gripper.held = 1
        assert not check_success(s, TaskSpec("put_in", 1, 0))

    def test_fold_unfold_at_zero(self):
        towel = ObjectState(4, "towel2link", 0.5, 0.5, 0.0, (0.085, 0.028))
        s = simple_state(objects=[towel])
        assert check_success(s, TaskSpec("unfold", 4))
        assert not check_success(s, TaskSpec("fold", 4))

    def test_stack_predicate(self):
        objs = [
            ObjectState(1, "disk", 0.500, 0.52, 0.0, (0.035,), z_level=1),
            ObjectState(2, "rect", 0.50, 0.50, 0.0, (0.03, 0.03)),
        ]
        s = simple_state(objects=objs)
        assert check_success(s, TaskSpec("stack", 1, 2))

    def test_dangling_object(self):
        s = simple_state()
        with pytest.raises(DanglingObjectError):
            check_success(s, TaskSpec("put_in", 9, 0))


class TestClassify:
    """`classify_clip` labels a clip from its steps' event kinds and the
    caller's flag for whether the clip ends in success."""

    def task(self):
        return TaskSpec("put_in", 1, 0)

    def test_miss_only(self):
        kinds = [EventKind.GRASP_MISS]
        assert classify_clip(kinds, self.task(), False) == BehaviorMode.MISSED_GRASP

    def test_success_clip(self):
        kinds = [EventKind.GRASP_SUCCESS, EventKind.NONE]
        assert classify_clip(kinds, self.task(), True) == BehaviorMode.SUCCESS

    def test_pre_grasp_miss_forgiven(self):
        kinds = [EventKind.GRASP_MISS, EventKind.GRASP_SUCCESS]
        assert classify_clip(kinds, self.task(), True) == BehaviorMode.SUCCESS

    def test_slide_then_slip_has_slip_precedence(self):
        kinds = [EventKind.CONTACT_SLIDE, EventKind.SLIP_DROP]
        assert classify_clip(kinds, self.task(), False) == BehaviorMode.SLIP

    def test_order_invariance(self):
        kinds = [EventKind.SLIP_DROP, EventKind.CONTACT_SLIDE]
        assert classify_clip(kinds, self.task(), False) == BehaviorMode.SLIP

    def test_fold_change_is_deformation_outside_fold_tasks(self):
        kinds = [EventKind.FOLD_CHANGE]
        assert classify_clip(kinds, self.task(), False) == BehaviorMode.DEFORMATION
        assert classify_clip(kinds, TaskSpec("fold", 4), True) == BehaviorMode.SUCCESS

    def test_stack_success_is_judged_under_the_clip_physics(self):
        """A stack released 0.03 from its base succeeds, so the miss before
        the grasp is forgiven; one released 0.05 away, beyond R_STACK, fails
        and the miss labels the clip. The caller judges success under the
        simulator's physics and passes the flag."""
        task = TaskSpec("stack", 1, 2)
        kinds = [EventKind.GRASP_MISS, EventKind.GRASP_SUCCESS, EventKind.NONE]
        for x, mode in ((0.53, BehaviorMode.SUCCESS), (0.55, BehaviorMode.MISSED_GRASP)):
            objs = [
                ObjectState(1, "disk", x, 0.50, 0.0, (0.035,), z_level=1),
                ObjectState(2, "rect", 0.50, 0.50, 0.0, (0.03, 0.03)),
            ]
            s = simple_state(objects=objs)
            assert classify_clip(kinds, task, check_success(s, task)) == mode

    def test_kinds_may_be_stored_ints(self):
        """Stored event rows hold each kind as its int value."""
        kinds = [int(EventKind.GRASP_MISS), int(EventKind.GRASP_SUCCESS), int(EventKind.NONE)]
        assert classify_clip(kinds, self.task(), True) == BehaviorMode.SUCCESS
        assert classify_clip(kinds, self.task(), False) == BehaviorMode.MISSED_GRASP


class TestCodec:
    def test_roundtrip_on_valid_states(self):
        scene = default_scene()
        rng = Rng(2)
        for _ in range(20):
            s = jittered_state(scene, rng, 0.05)
            s.gripper.x = rng.uniform()
            s.gripper.y = rng.uniform()
            s.gripper.z = rng.randint(2)
            s.gripper.aperture = rng.uniform()
            vec = statecodec.encode_state(s)
            back = statecodec.decode_state(vec, scene.nominal_state())
            assert back.gripper.x == pytest.approx(s.gripper.x, abs=1e-12)
            assert back.gripper.z == s.gripper.z
            for a, b in zip(back.objects, s.objects):
                assert a.x == pytest.approx(b.x, abs=1e-12)
                assert a.z_level == b.z_level
                assert a.fold_angle == pytest.approx(b.fold_angle, abs=1e-12)

    def test_held_decoding(self):
        scene = default_scene()
        s = scene.nominal_state()
        s.gripper.held = 2
        s.gripper.aperture = 0.0
        obj = s.object_by_id(2)
        obj.x, obj.y = s.gripper.x, s.gripper.y
        back = statecodec.decode_state(statecodec.encode_state(s), scene.nominal_state())
        assert back.gripper.held == 2

    @staticmethod
    def decoded_fields(s):
        """Every field of a decoded state, floats as hex and ints with their type."""
        def bits(v):
            return float.hex(v) if isinstance(v, float) else (type(v).__name__, v)
        g = s.gripper
        out = [bits(v) for v in (g.x, g.y, g.z, g.aperture, g.held, s.slip_fated)]
        for o in s.objects:
            out += [o.oid, o.kind, o.size,
                    *(bits(v) for v in (o.x, o.y, o.theta, o.z_level, o.fold_angle))]
        return out

    @staticmethod
    def awkward_vecs(template):
        """60 state vectors: random held slots, a held rigid object, a held
        towel, z-levels on rounding ties, and signed zeros."""
        n = len(template.objects)
        towel = next(i for i, o in enumerate(template.objects) if o.kind == "towel2link")
        rigid = next(i for i, o in enumerate(template.objects) if o.kind != "towel2link")
        vecs = Rng(8).normal((60, statecodec.state_dim(n))) * 1.5
        vecs[10:, 4:4 + n] = -np.abs(vecs[10:, 4:4 + n])  # rows 0-9 keep random held slots
        vecs[10:20, 4 + rigid] = 0.7          # a held rigid object
        vecs[20:30, 4 + towel] = 0.7          # a held towel
        z_cols = 4 + n + 3 + 5 * np.arange(n)
        vecs[30:40, z_cols] = np.resize([0.5, -0.5, 1.5, -1.5, 2.5, -2.5], (10, n))
        vecs[40:50] = np.resize([0.0, -0.0, -1.0, 1.0], vecs[40:50].shape)  # signed zeros
        vecs[50:60, 4:] = -0.0
        return vecs, rigid, towel

    def test_built_states_are_decode_state_bit_for_bit(self):
        template = default_scene().nominal_state()
        vecs, rigid, towel = self.awkward_vecs(template)
        objs = roster(template.objects)
        states = statecodec.build_states(*statecodec.project_states(vecs, objs),
                                         np.zeros(len(vecs), dtype=bool), objs)
        want = [self.decoded_fields(statecodec.decode_state(v, template)) for v in vecs]
        assert [self.decoded_fields(s) for s in states] == want
        held = [s.gripper.held for s in states[10:30]]
        assert held == [template.objects[rigid].oid] * 10 + [template.objects[towel].oid] * 10

    def test_projected_arrays_encode_as_the_decoded_states(self):
        template = default_scene().nominal_state()
        vecs, _, _ = self.awkward_vecs(template)
        want = np.stack([statecodec.encode_state(statecodec.decode_state(v, template))
                         for v in vecs])
        arrays = statecodec.project_states(vecs, roster(template.objects))
        got = statecodec.encode_states(*arrays)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_z_level_fails(self, bad):
        template = default_scene().nominal_state()
        vec = np.zeros(statecodec.state_dim(len(template.objects)))
        vec[4 + len(template.objects) + 3] = bad
        with pytest.raises((ValueError, OverflowError)):
            statecodec.decode_state(vec, template)
        with pytest.raises(ValueError, match="non-finite z-level"):
            statecodec.project_states(np.stack([np.zeros_like(vec), vec]),
                                      roster(template.objects))

    def test_action_roundtrip(self):
        a = Action(dx=0.05, dy=-0.03, dz=1.0, dg=-0.5)
        back = statecodec.decode_action(statecodec.encode_action(a))
        assert back == a

    def test_action_rows_decode_as_decode_action(self):
        vecs = Rng(5).normal((3, 7, 4)) * 2.0
        want = [[astuple(statecodec.decode_action(v)) for v in row] for row in vecs]
        assert statecodec.decode_action_rows(vecs).tobytes() == np.array(want).tobytes()

    def test_decoded_actions_are_what_the_simulator_executes(self):
        """The codec's clip is the simulator's clamp: a decoded row, even of
        values far outside [-1, 1], passes through `sanitized` unchanged, and
        a saturated row decodes to the clamp's bounds."""
        vecs = Rng(6).normal((200, 4)) * 5.0
        for row in statecodec.decode_action_rows(vecs).tolist():
            done = Action(*row).sanitized()
            assert (done.dx, done.dy, done.dg) == (row[0], row[1], row[3])
        edge = Action(dx=1.0, dy=-1.0, dg=9.0).sanitized()
        assert statecodec.decode_action_rows(np.array([9.0, -9.0, 0.0, 9.0])).tolist() == \
            [edge.dx, edge.dy, 0.0, edge.dg]

    def test_scene_config_roundtrip(self):
        cfg = default_scene()
        back = scene_from_dict(scene_to_dict(cfg))
        assert back == cfg

    def test_scene_record_with_an_unread_key_fails_by_name(self):
        """A scene record from before SceneConfig lost its unread seed, or
        its physics, which are now the simulator's constants."""
        with pytest.raises(ValueError, match="unknown scene keys \\['seed'\\]"):
            scene_from_dict({**scene_to_dict(default_scene()), "seed": 0})
        with pytest.raises(ValueError, match="unknown scene keys \\['physics'\\]"):
            scene_from_dict({**scene_to_dict(default_scene()), "physics": {"r_stack": 0.04}})

    def test_scene_object_keys_are_exact(self):
        """An object key scene_to_dict does not write, or one it writes but
        the record lacks, fails by name and object id."""
        record = scene_to_dict(default_scene())
        record["objects"][0]["colour"] = "red"  # the bowl
        with pytest.raises(ValueError, match=r"unknown scene object 0 keys \['colour'\]"):
            scene_from_dict(record)
        record = scene_to_dict(default_scene())
        del record["objects"][1]["z_level"]  # the disk
        with pytest.raises(ValueError, match=r"missing scene object 1 keys \['z_level'\]"):
            scene_from_dict(record)
