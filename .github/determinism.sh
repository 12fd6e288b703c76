#!/usr/bin/env bash
# Writes the CLI trees of the five determinism configs with the occgeom
# source in SRC_DIR, into OUT_DIR: each config as OUT_DIR/<name>.json and its
# trees under OUT_DIR/<name>/. Two runs, or a run on another commit's source,
# must give byte-identical OUT_DIRs.
#
#   bash .github/determinism.sh SRC_DIR OUT_DIR
set -euo pipefail
src=$(cd "$1" && pwd)
out=$2
mkdir -p "$out"
occgeom() { PYTHONPATH="$src" python -m occgeom.cli "$@"; }

# `gen` and `render` at a reduced corridor config (6,000 rays per view, less
# than one ray block) and at the render-corridor benchmark config (180x320:
# 8 blocks of 8,192 rays, the last one partial)
echo '{"scene": {"preset": "corridor", "dims": [32, 32, 8], "voxel_size": 0.4, "num_cameras": 2, "image_size": [24, 40], "seed": 1}, "render": {"S": 76, "t_near": 1.0, "t_far": 45.0, "resolution": [60, 100]}}' > "$out/corridor.json"
echo '{"scene": {"preset": "corridor", "dims": [32, 32, 8], "voxel_size": 0.4, "num_cameras": 2, "image_size": [48, 80], "seed": 0}, "render": {"S": 152, "t_near": 1.0, "t_far": 45.0, "resolution": [180, 320]}}' > "$out/bench-corridor.json"
# `gen` and `eval --visible` of the ground truth on a random_blobs scene
# whose voxel_size, origin and sigma_occ are JSON integers
echo '{"scene": {"preset": "random_blobs", "dims": [24, 24, 8], "voxel_size": 1, "origin": [0, -1, 0], "num_cameras": 3, "image_size": [24, 40], "seed": 4, "sigma_occ": 50}}' > "$out/blobs.json"
# a 3-step `selftrain` on a small boxes scene, and `selftrain` at the
# selftrain-boxes benchmark config (20 steps), whose adjoint scatters its
# blocks with one np.bincount each
echo '{"scene": {"preset": "boxes", "dims": [16, 16, 8], "voxel_size": 0.4, "num_cameras": 2, "image_size": [24, 40], "seed": 1}, "render": {"S": 32, "t_near": 1.0, "t_far": 10.0, "resolution": [24, 40]}, "optimize": {"steps": 3}}' > "$out/selftrain.json"
echo '{"scene": {"preset": "boxes", "dims": [32, 32, 8], "voxel_size": 0.4, "num_cameras": 2, "image_size": [36, 64], "seed": 11}, "render": {"S": 64, "t_near": 1.0, "t_far": 16.0, "resolution": [36, 64]}, "optimize": {"steps": 20, "step_size": 100.0, "init": "perturbed_gt", "perturbation": 0.1, "lidar_samples": 300}}' > "$out/boxes.json"

for name in corridor bench-corridor; do
  occgeom gen --config "$out/$name.json" --out "$out/$name/scene" > /dev/null
  occgeom render --config "$out/$name.json" --scene-dir "$out/$name/scene" --out "$out/$name/render"
done
occgeom gen --config "$out/blobs.json" --out "$out/blobs/scene" > /dev/null
occgeom eval --config "$out/blobs.json" --scene-dir "$out/blobs/scene" --pred "$out/blobs/scene/grid.raw" --visible --out "$out/blobs/eval"
for name in selftrain boxes; do
  occgeom gen --config "$out/$name.json" --out "$out/$name/scene" > /dev/null
  occgeom selftrain --config "$out/$name.json" --scene-dir "$out/$name/scene" --out "$out/$name/selftrain"
done
