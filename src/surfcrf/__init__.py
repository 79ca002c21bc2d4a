"""Surface segmentation via harmonic spherical mapping, cube-sphere quad
remeshing, terrain-like column patches, and mean-field CRF inference."""

from .volume import (Volume, PhantomSpec, SvolError, load_svol, save_svol,
                     make_phantom)
from .mesh import (TriMesh, SphereMap, MeshError, load_mesh, save_mesh,
                   validate_closed_genus0, vertex_normals, taubin_smooth,
                   harmonic_sphere_map, icosphere)
from .quadsphere import (QuadSphere, QuadMesh, LocateError, build_quadsphere,
                         locate_on_sphere, remesh, save_quadmesh, load_quadmesh)
from .patches import (ColumnGraph, PatchSet, GroundTruth, sample_columns,
                      ground_truth, labeling_to_world, save_patchset,
                      load_patchset, make_toy_graph)
from .crf import (UnaryField, CrfParams, KernelField, SurfaceLabeling,
                  channel_reduce, gradient_unary, unary_from_logits,
                  compatibility, compat_matrix, compute_kernel, compat_transform,
                  meanfield_infer, energy, prostate_params, spleen_params)
from .train import (LossReport, FitConfig, FitResult, FitDivergedError,
                    mce_loss, meanfield_grad, fd_check, fit)
from .metrics import (MetricsReport, voxelize, dsc, sample_surface, hd, asd,
                      compare_surfaces)

__version__ = "0.1.0"
