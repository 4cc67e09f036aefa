"""finform: finite-group formation theory at desk scale.

Groups live on dense multiplication tables; the package computes residuals,
central sections, hypercentres, and subnormal chains for the built-in
formations, and sweeps a catalog of small groups to verify the centralizer
theorems and their supporting lemmas exhaustively.
"""

from .errors import (
    FormationLawViolated,
    GroupError,
    GroupFileError,
    HypercentreNotHypercentral,
    LatticeBudgetExceeded,
    NotAGroup,
    NotNormal,
    OrderCapExceeded,
    SearchBudgetExceeded,
    UnknownFormation,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Subgroup,
    center,
    centralizer,
    centralizer_of_section,
    core,
    generated_subgroup,
    join,
    normal_closure,
    quotient,
    upper_central_series,
)
from .construct import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    from_cayley_table,
    from_permutation_gens,
    quaternion,
    semidirect_product,
    semidirect_section,
    symmetric,
)
from .morphisms import (
    automorphism_group,
    automorphisms,
    is_isomorphic,
)
from .lattice import (
    all_subgroups,
    chief_series,
    chief_series_through,
    frattini,
    minimal_normal_subgroups,
    normal_hall_subgroup,
    normal_subgroups,
    overgroups,
)
from .formations import (
    Formation,
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    SigmaPartition,
    builtin_formations,
    formation_by_selector,
    hypercentre,
    is_f_central,
    is_f_hypercentral,
    is_nilpotent,
    is_sigma_central,
    is_sigma_nilpotent,
    is_soluble,
    is_supersoluble,
    residual,
    sigma_nilpotent_formation,
)
from .subnormal import (
    WitnessChain,
    chain_subnormals,
    is_f_subnormal,
    is_k_f_subnormal,
    is_sigma_subnormal,
    is_subnormal,
)
from .verify import (
    Catalog,
    VerificationReport,
    catalog_generate,
    run_all,
    verify_holomorph_bound,
    verify_lemma_suite,
    verify_schenkman_classic,
    verify_section3_corollaries,
    verify_theorem_a,
    verify_theorem_b,
)
from .files import dump_group_table, load_group_file, parse_group_text

__version__ = "0.1.0"
