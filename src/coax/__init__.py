"""Inference systems with coaxioms: inductive, coinductive and generated
interpretations over finite judgement universes, proof artifacts, and
specification checkers."""

__version__ = "0.1.0"

# The public names by defining module.  Each is imported on first use
# (PEP 562), as is each of these modules read as an attribute of the
# package, so that `import coax.cli` loads only what a command needs.
_EXPORTS = {
    "core": """
        BetaNotClosed CapExceeded CoaxError InferenceSystem IterationTrace
        Judgement JudgementSet Rule Universe UniverseMismatch closure_of
        coinductive generated inductive infer_step kernel_below
        with_coaxioms_as_axioms
    """,
    "regular": """
        Binding EqSystem ShapeMismatch carrier cycle_list cycle_stream
        finite_list parse_eq_system
    """,
    "prooftree": """
        NotConsistent NotInGenerated PathTree ProofGraph approx_proof
        approximating_sequence proof_graph tree_eq_n tree_le_n unfold
        validate_approx_level validate_proof_tree wf_proof_search
    """,
    "verify": """
        BruteForceResult UniverseTooLarge Verdict bounded_coinduction
        brute_force check_closed check_consistent refute_level
    """,
    "systems": """
        Graph Grammar Abs App Var build_add build_bigstep
        build_dist build_first build_path0 build_reach
        build_spath parse_grammar parse_graph parse_lambda substitute term_text
    """,
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
