"""Runtime knob (the enumeration cap, overridable through the environment) and
the choice lists the command line offers. Each list is defined here once and
imported by its home module, so building the parser loads no module that the
chosen subcommand does not use."""

import os

# Exhaustive semantics enumeration scans up to 2^n candidate subsets; refuse
# beyond this many arguments instead of hanging.
DEFAULT_MAX_ENUM_ARGS = 24

ENV_MAX_ARGS = "AFKIT_MAX_ARGS"

# kernels
KERNEL_IDS = (
    "k_stb", "k_adm", "k_grd", "k_com", "ks_adm", "ks_grd", "ks_com", "ks_stg", "k_nav", "identity",
)
NOTIONS = ("ordinary", "E", "N", "S", "W", "L", "ND", "D", "LD", "U")
EXPANSION_NOTIONS = ("E", "N", "S", "L")
DELETION_NOTIONS = ("ND", "D", "LD")

# realizability
SIGNATURE_SEMANTICS = ("cf", "nav", "stb", "stg", "adm", "prf", "semi", "grd", "id", "eag")
# semantics for which compact / analytic classification is defined
CLASSIFIABLE_SEMANTICS = (
    "cf", "nav", "adm", "com", "grd", "stb", "stg", "semi", "prf", "id", "eag", "cf2", "stg2",
)

# verifiability: the exact verification class of each semantics
EXACT_CLASS: dict[str, str] = {
    "nav": "ε",
    "stb": "+",
    "stg": "+",
    "adm": "∓",
    "prf": "∓",
    "id": "∓",
    "semi": "+∓",
    "eag": "+∓",
    "grd": "−±",
    "sad": "−±",
    "com": "+−",
}
VERIFIABLE_SEMANTICS = tuple(EXACT_CLASS)


def max_enum_args() -> int:
    raw = os.environ.get(ENV_MAX_ARGS)
    if raw is None:
        return DEFAULT_MAX_ENUM_ARGS
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_ARGS} must be an integer, got {raw!r}")
    if value < 0:
        raise ValueError(f"{ENV_MAX_ARGS} must be non-negative, got {value}")
    return value
