"""Lattice O(3) sigma model and CP1 gauge model: identities and sampling."""

from .actions import (
    action_cp1_gauged,
    action_cp1_reduced,
    action_o3,
    action_o3_pullback,
    gauge_marginal_closed_form,
    marginalize_gauge_numeric,
    partition_constants,
)
from .errors import O3CP1Error
from .fields import (
    CP1Field,
    GaugeField,
    SpinField,
    hopf_map,
    jacobian_polar,
    random_unit,
)
from .lattice import Lattice, build_lattice
from .measure import (
    measure_lhs,
    one_site_ratio_test,
    pushforward_uniformity,
    reduction_consistency,
    verify_constant_c,
)
from .mc import (
    ChainState,
    gibbs_gauge_update,
    init_chain,
    jackknife,
    metropolis_sweep,
    run_chain,
    run_chains,
    tune_proposal,
    two_site_exact,
)

__version__ = "0.1.0"
