"""Workload definitions, shared physical settings and the layer map.

Every workload is a closed loop with one caller: the operator is built,
then one round solves all of the workload's right-hand sides (RHS) on it,
and the next build starts only after that round has finished. The seed draws the
plane-wave incidence directions, the probe vectors and the sampled check
rows; the program under test receives only the generated arrays.

Sizes are chosen so that one run (at least three builds, each followed by
a solve round) stays under a minute on a 2-core machine with the numpy
kernel backend. BENCHMARK.json records why each workload was chosen.

Two workloads, not three: on a shared 2-core host the solve time of one
process swings by 20-30% over tens of seconds, and only runs of about a
minute keep the cube-direct medians within their bounds. The benchmark's
total time budget (ten runs per workload, twice, in under an hour) allows
runs that long for two workloads only. The rod (N = 16384, 256
RHS) was dropped: the layers it stressed still run on the other two,
matmat_apply in cube-direct's block solve and the oracle in every build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# physical and compression settings shared by all workloads
K0 = 2.0 * math.pi  # lambda0 = 1 m
VPW = 10
EPS_R = 2.54
EPS_ACA = 1e-4
EPS_ACC = 1e-4
N_MIN = 32
ETA = 1.0
TOL = 1e-3  # BiCGStab relative residual target
MAX_ITER = 200

MIN_BUILDS = 3  # builds per run at least; setup_s is their median
CHECK_ROWS = 512  # exact rows sampled for the correctness gate
N_PROBES = 16  # seeded probe vectors for operator_rel_err
WARMUP_ROD = 51.2  # wavelengths; N = 512 warm-up build before any timing


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # rod | slab | cube_array
    extent: tuple  # per kernel.generate_geometry
    solver: str  # "iterative": BiCGStab per RHS; "direct": h2_invert + block apply
    nrhs: int
    residual_bound: float  # gate on ||S_exact x - b|| / ||b|| over sampled rows


WORKLOADS = {
    w.name: w
    for w in (
        # 16 angles: the worst residual over fewer BiCGStab solves swings with the seed
        Workload("slab-sweep", "slab", (6.0, 6.0), "iterative", 16, 3e-3),
        # the bound reflects the fixed-basis inverse's accuracy floor on 3-D
        # geometries (about 5e-2 after one refinement sweep), not the target
        Workload("cube-direct", "cube_array", (5, 3, 3), "direct", 64, 0.2),
    )
}


# Layer -> end-to-end map: which end-to-end metric each per-layer metric
# group should move, and on which workload. A change to one layer states its
# claim against this map.
#   clustering.*_s                 setup_s, marginally, on every workload
#   clustering counts              solve_s on every workload
#   kernel.*                       setup_s, most on slab-sweep; never solve_s
#   stage1.*                       setup_s, most on slab-sweep; operator_rel_err
#                                  if ACA changes
#   stage2.*, basis.*, storage.*   setup_s a little (slab-sweep, cube-direct);
#                                  storage_bytes and peak_rss_mb everywhere
#   matvec.*                       solve_s on slab-sweep, barely on cube-direct
#   matmat.*                       solve_s on cube-direct (three block
#                                  applications per round)
#   bicgstab.*                     solve_s on slab-sweep; a matvec optimisation
#                                  must leave bicgstab.iterations unchanged
#   invert.*                       solve_s and peak_rss_mb on cube-direct
#                                  (dominant), not on slab-sweep;
#                                  invert.residual_est moves solution_residual
#   trace.overhead_s               traced minus untraced set-up; moves nothing
