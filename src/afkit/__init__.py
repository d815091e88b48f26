"""afkit: finite abstract argumentation frameworks and their meta-theory.

Enumeration of extensions/labellings under fourteen semantics, kernel-based
decision of equivalence notions, realizability of extension-sets with canonical
witness constructions, compact/analytic classification, semantics
reconstruction from verification classes, and canonical characterization
logics for explicitly tabulated finite logics.

Importing the package loads none of its modules: a public name imports its
module on first access (PEP 562) and is then kept in the package namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "core": "AF AFError anti_range delete loops range_of sccs union_af",
        "semantics": "Labelling SEMANTICS extensions grounded_iteration labellings strongly_admissible",
        "kernels": "EquivalenceVerdict KERNEL_IDS SearchBudget characterizing_kernel decide_equivalence"
        " kernel search_counterexample",
        "realizability": "SetAnalysis SignatureVerdict analyze canonical_cf canonical_def canonical_stb"
        " decide_signature defense_formula_cnf implicit_conflicts is_analytic is_compact realize",
        "verifiability": "VerificationClassData exact_class more_informative neighborhood"
        " verification_class verify",
        "charlogic": "EquivalencePartition FiniteLogic canonical_characterization canonical_consequence"
        " consequence_properties galois_check has_intersection_property is_characterization"
        " make_logic rho_logic strong_eq_classes",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
