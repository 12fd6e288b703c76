"""Desk-scale geometric core of a camera-to-3D-occupancy pipeline.

Subpackages by concern:
  tensor          float64 array ops and sampling primitives
  camera          pinhole rigs, projection, relative poses
  view_transform  explicit lift-and-pool plus implicit projection sampling
  occ_encdec      windowed-attention encoder and masked semantic decoder
  renderer        depth volume rendering and its density gradient
  cast            photometric self-supervision over a rig's context pairs
  metrics         occupancy IoU / mIoU
  synthscene      procedural test worlds and first-hit oracles
  cli             the `occgeom` command line

Importing the package fixes glibc's malloc thresholds (see `_malloc`).
"""

from . import _malloc

_malloc.fix_thresholds()

from .camera import Camera, CameraRig, Intrinsics, Pose
from .cast import PhotometricConfig
from .metrics import EvalResult
from .occ_encdec import SemanticOccupancy, SemanticQuerySet, WindowedAttentionParams
from .renderer import DensityField, DepthMap, RenderConfig
from .synthscene import SceneBundle
from .view_transform import DepthDistribution, OccupancyFeature, VoxelGridSpec

__all__ = [
    "Camera",
    "CameraRig",
    "DensityField",
    "DepthDistribution",
    "DepthMap",
    "EvalResult",
    "Intrinsics",
    "OccupancyFeature",
    "PhotometricConfig",
    "Pose",
    "RenderConfig",
    "SceneBundle",
    "SemanticOccupancy",
    "SemanticQuerySet",
    "VoxelGridSpec",
    "WindowedAttentionParams",
]

__version__ = "0.1.0"
