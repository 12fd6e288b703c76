"""Records that hold arrays compare by identity; grid specs by value."""

import dataclasses
import re

import numpy as np

from occgeom import camera, cast, cli, metrics, occ_encdec, renderer, synthscene, view_transform
from occgeom.synthscene import SceneConfig, build_scene
from occgeom.view_transform import VoxelGridSpec

MODULES = (camera, cast, cli, metrics, occ_encdec, renderer, synthscene, view_transform)


def array_records() -> dict[str, type]:
    """Every dataclass of the package with a field that holds arrays: one
    typed np.ndarray, or a record, NamedTuple or container of one that
    holds them."""
    classes = {
        name: c
        for m in MODULES
        for name, c in vars(m).items()
        if isinstance(c, type) and c.__module__ == m.__name__
    }

    def field_types(c):
        if dataclasses.is_dataclass(c):
            return [str(f.type) for f in dataclasses.fields(c)]
        return [str(t) for t in getattr(c, "__annotations__", {}).values()]

    holders: set[str] = set()
    grew = True
    while grew:
        words = "|".join(["ndarray", *sorted(holders)])
        found = {
            name for name, c in classes.items()
            if any(re.search(rf"\b({words})\b", t) for t in field_types(c))
        }
        grew = found != holders
        holders = found
    return {name: classes[name] for name in holders if dataclasses.is_dataclass(classes[name])}


def test_array_records_have_no_generated_equality():
    # a generated __eq__ compares array fields with `==`, which raises
    # "truth value ... ambiguous", and a generated __hash__ raises TypeError
    records = array_records()
    assert {"Pose", "CameraRig", "DepthMap", "SemanticOccupancy", "SceneBundle"} <= set(records)
    for name, cls in records.items():
        if cls is VoxelGridSpec:  # equal by dims, voxel size and origin
            continue
        assert not cls.__dataclass_params__.eq, name


def test_equal_contents_are_distinct_records():
    # two builds of one scene: equal arrays, distinct records
    scene, again = (build_scene(SceneConfig(image_size=(8, 8))) for _ in range(2))
    pairs = [
        (scene, again),
        (scene.grid, again.grid),
        (scene.rig, again.rig),
        (scene.rig.ego_poses[0], again.rig.ego_poses[0]),
        (scene.gt_depths[(0, 0)], again.gt_depths[(0, 0)]),
        (scene.density_gt, again.density_gt),
    ]
    assert np.array_equal(scene.grid.labels, again.grid.labels)
    for a, b in pairs:
        assert a == a and a != b and len({a, b}) == 2
    assert scene.spec == again.spec and hash(scene.spec) == hash(again.spec)
