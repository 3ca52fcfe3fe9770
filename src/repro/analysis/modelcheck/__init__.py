"""Bounded model checker for the nested-enclave access automaton.

``run_modelcheck`` explores every reachable configuration of a bounded
machine (see :data:`SCOPES`) through the real ISA and validator, checks
the §VII-A invariants plus executable MLS-lattice properties at every
state, and reports violations as MC001-MC004 findings with minimized
counterexample traces.  ``run_mutation_kill`` is the self-validation
mode: each named validator weakening must be killed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.modelcheck.explorer import CheckResult, explore
from repro.analysis.modelcheck.mutations import MUTATIONS, Mutation
from repro.analysis.modelcheck.world import SCOPES, Scope, build_world

__all__ = [
    "CheckResult", "MUTATIONS", "Mutation", "MutationOutcome", "SCOPES",
    "Scope", "build_world", "explore", "run_modelcheck",
    "run_mutation_kill",
]


def run_modelcheck(scope: str = "default", *, shuffle_seed=None,
                   max_states=None) -> CheckResult:
    """Exhaust one scope with the real validator; clean repo => no
    findings and a stable (state_count, digest) pair."""
    world = build_world(SCOPES[scope])
    return explore(world, shuffle_seed=shuffle_seed, max_states=max_states)


@dataclass
class MutationOutcome:
    mutation: str
    expected_rule: str
    killed: bool
    rules: tuple = ()
    findings: list = field(default_factory=list)


def run_mutation_kill(scope: str = "tiny",
                      names=None) -> "list[MutationOutcome]":
    """Run the kill-list: each mutant world must produce a finding of
    the mutation's expected rule."""
    outcomes = []
    for name in names or sorted(MUTATIONS):
        mutation = MUTATIONS[name]
        world = build_world(SCOPES[scope],
                            validator_cls=mutation.validator_cls)
        if mutation.apply is not None:
            mutation.apply(world)
        result = explore(world, stop_on_violation=True)
        rules = tuple(sorted({f.rule for f in result.findings}))
        outcomes.append(MutationOutcome(
            mutation=name, expected_rule=mutation.expected_rule,
            killed=mutation.expected_rule in rules, rules=rules,
            findings=result.findings))
    return outcomes
