"""Seeded inputs for the deon benchmark, with their expected verdicts.

Three input kinds:

- `scaling_scenario`: a family over agents x objects x quantifier depth x the
  fraction of plans with object variables. The physics is a chain of
  definite Horn rules whose ground size grows as agents^(depth-1) x objects,
  so every query carries a large belief theory.
- `fixpoint_scenario`: a chain of n agents in which each plan interferes,
  through the acting agent's own belief, only with the next agent's plan,
  and the last plan fails generalization. The fixpoint needs n+1 rounds.
- `mutant`: a one-edit mutation of a scenario source.

Expected verdicts are derived from how each instance is built, never by
running the checker; `expected` documents the reasoning next to the code
that makes each instance.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass, field

ETHICAL = "ethical"
UNETHICAL = "unethical"
PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class Instance:
    """One generated scenario source and the verdicts it must produce."""

    name: str
    text: str
    plans: dict[str, dict[str, str]] = field(default_factory=dict)  # plan -> principle -> status
    rounds: int = 1

    def expected(self) -> dict:
        """Exit code, rounds, stability and per-plan statuses of `deon check`."""
        overall = {pid: _overall(st) for pid, st in self.plans.items()}
        return {
            "exit": 1 if UNETHICAL in overall.values() else 0,
            "rounds": self.rounds,
            "stable": True,
            "plans": {pid: {"overall": overall[pid], **st} for pid, st in self.plans.items()},
        }


def _overall(statuses: dict[str, str]) -> str:
    return UNETHICAL if FAIL in statuses.values() else ETHICAL


def _statuses(generalization: str = PASS, autonomy: str = PASS) -> dict[str, str]:
    return {"generalization": generalization, "utility": PASS, "autonomy": autonomy}


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(3))


# --------------------------------------------------------------------------
# Scaling family


def scaling_scenario(
    rng: random.Random, agents: int, objects: int, depth: int, plans: int,
    object_fraction: float,
) -> Instance:
    """`plans` plans of distinct agents over a chain-rule physics of the given depth.

    The physics is a set of definite Horn rules (positive heads only):
    `link(x1,x2) and ... and link(x{d-2},x{d-1}) and has(x1,y) -> has(x{d-1},y)`
    with d-1 agent variables and one object variable, plus one rule per plan
    tying its action to `has`. One plan (the "bad" plan) carries a
    universalization effect that denies its own reasons; two other plans form
    an exclusive pair whose actions, and whose reasons, cannot hold together.

    Verdicts by construction:
    - bad plan: its generalization query asserts its reasons for its own
      agent and, through the effect, their negation for every agent: UNSAT,
      so it fails generalization. Its autonomy pairs are satisfiable (all
      other atoms true), and no candidates are declared, so utility passes.
    - every other plan: generalization and autonomy queries are satisfied
      by making every atom true except the reasons and actions of the other
      member of an exclusive pair (and of the bad plan once its effect is
      triggered); Horn rules with positive heads never force those atoms.
      The exclusive pair's action query is UNSAT but its reasons query is
      UNSAT too, so autonomy passes through the second disjunct.
    - round 1 already has the final statuses; round 2 confirms them.
    """
    if not 3 <= plans <= agents or objects < 1 or depth < 2:
        raise ValueError("scaling needs 3 to `agents` plans, 1 object and depth 2")
    tag = _tag(rng)
    agent_names = [f"ag{i}{tag}" for i in range(agents)]
    object_names = [f"ob{i}{tag}" for i in range(objects)]
    owners = rng.sample(agent_names, plans)
    plan_ids = [f"p{i}{tag}" for i in range(plans)]
    with_objects = set(rng.sample(range(plans), round(object_fraction * plans)))
    bad, first, second = rng.sample(range(plans), 3)

    def args(i: int, agent: str, obj: str) -> str:
        return f"{agent}, {obj}" if i in with_objects else agent

    preds = ["link(agent, agent)", "idle(agent, agent)", "has(agent, object)"]
    for i in range(plans):
        sorts = "agent, object" if i in with_objects else "agent"
        preds += [f"want{i}({sorts})", f"act{i}({sorts}) action"]

    xs = [f"x{k}" for k in range(1, depth)]
    quant = "".join(f"forall {x}. " for x in xs) + "forall y. "
    links = [f"link({xs[k]}, {xs[k + 1]})" for k in range(len(xs) - 1)]
    body = " and ".join(links + [f"has({xs[0]}, y)"])
    physics = [f"{quant}{body} -> has({xs[-1]}, y);", "forall x. forall z. link(x, z) or idle(x, z);"]
    for i in range(plans):
        if i in with_objects:
            physics.append(f"forall x. forall y. act{i}(x, y) -> has(x, y);")
        else:
            physics.append(f"forall x. forall y. act{i}(x) -> has(x, y);")
    pair_quant = "forall x. forall z. " + ("forall y. " if {first, second} & with_objects else "")
    for kind in ("act", "want"):
        left = f"{kind}{first}({args(first, 'x', 'y')})"
        right = f"{kind}{second}({args(second, 'z', 'y')})"
        physics.append(f"{pair_quant}not ({left} and {right});")
    rng.shuffle(physics)

    plan_texts = []
    for i in range(plans):
        agent = owners[i]
        head = f"plan {plan_ids[i]} agent {agent}" + (" forall y" if i in with_objects else "")
        plan_texts.append(
            f"{head}:\n"
            f"  reasons {{ want{i}({args(i, agent, 'y')}) }}\n"
            f"  action {{ act{i}({args(i, agent, 'y')}) }}\n"
        )
    rng.shuffle(plan_texts)
    effect_quant = "forall x. forall y. " if bad in with_objects else "forall x. "
    effect = (
        f"on_universalized {plan_ids[bad]} {{\n"
        f"  {effect_quant}not want{bad}({args(bad, 'x', 'y')});\n}}\n"
    )

    name = f"scaling_{agents}a{objects}o{depth}d{plans}p_{tag}"
    text = (
        f"scenario {name}\n\n"
        f"agents {', '.join(agent_names)}\n"
        f"objects {', '.join(object_names)}\n\n"
        "predicates\n  " + ",\n  ".join(preds) + "\n\n"
        "physics {\n  " + "\n  ".join(physics) + "\n}\n\n"
        + "\n".join(plan_texts) + "\n" + effect
    )
    verdicts = {
        plan_ids[i]: _statuses(generalization=FAIL if i == bad else PASS)
        for i in range(plans)
    }
    return Instance(name, text, verdicts, rounds=2)


# --------------------------------------------------------------------------
# Fixpoint family


def fixpoint_scenario(rng: random.Random, n: int) -> Instance:
    """A chain of n agents whose verdicts settle one per fixpoint round.

    Agent i believes `not (act_i(a_i) and act_{i+1}(a_{i+1}))`, so plan i's
    autonomy pair with plan i+1 has an UNSAT action query and a satisfiable
    reasons query: plan i fails autonomy exactly while plan i+1 is protected.
    The last plan's universalization effect denies its own reasons, so it
    fails generalization from round 1 on. Every other query is satisfiable.

    Verdicts by construction: counting k steps back from the last plan,
    plan n-1-k is unethical (autonomy) for even k > 0 and ethical for odd k.
    Plan n-1-k reaches its final status in round k+1 and keeps flipping
    before that, so plan 0 settles in round n and round n+1 confirms it.
    """
    if n < 2:
        raise ValueError("a fixpoint chain needs at least 2 agents")
    tag = _tag(rng)
    agent_names = [f"ag{i}{tag}" for i in range(n)]
    plan_ids = [f"p{i}{tag}" for i in range(n)]

    preds = []
    for i in range(n):
        preds += [f"want{i}(agent)", f"act{i}(agent) action"]
    beliefs = [
        f"belief {agent_names[i]} {{\n"
        f"  not (act{i}({agent_names[i]}) and act{i + 1}({agent_names[i + 1]}));\n}}\n"
        for i in range(n - 1)
    ]
    plans = [
        f"plan {plan_ids[i]} agent {agent_names[i]}:\n"
        f"  reasons {{ want{i}({agent_names[i]}) }}\n"
        f"  action {{ act{i}({agent_names[i]}) }}\n"
        for i in range(n)
    ]
    rng.shuffle(beliefs)
    rng.shuffle(plans)
    order = list(agent_names)
    rng.shuffle(order)
    effect = (
        f"on_universalized {plan_ids[-1]} {{\n"
        f"  forall x. not want{n - 1}(x);\n}}\n"
    )

    name = f"fixpoint_{n}_{tag}"
    text = (
        f"scenario {name}\n\n"
        f"agents {', '.join(order)}\n\n"
        "predicates\n  " + ",\n  ".join(preds) + "\n\n"
        + "\n".join(beliefs) + "\n" + "\n".join(plans) + "\n" + effect
    )
    verdicts = {}
    for k in range(n):
        pid = plan_ids[n - 1 - k]
        if k == 0:
            verdicts[pid] = _statuses(generalization=FAIL)
        else:
            verdicts[pid] = _statuses(autonomy=FAIL if k % 2 == 0 else PASS)
    return Instance(name, text, verdicts, rounds=n + 1)


# --------------------------------------------------------------------------
# Mutants

_NOISE = "{}(),;.=->#abxyz01/ \n\t"
_WORD = re.compile(r"#[^\n]*|([A-Za-z][A-Za-z0-9_]*)")  # comments are skipped


def mutant(rng: random.Random, text: str) -> str:
    """Apply one edit: delete, duplicate or replace a short span, or swap a word.

    A swapped word is another identifier of the same file, which yields
    mutants that still lex and often parse (wrong kinds, wrong agents).
    """
    kind = rng.randrange(4)
    i = rng.randrange(len(text))
    j = min(len(text), i + rng.randint(1, 12))
    if kind == 0:
        return text[:i] + text[j:]
    if kind == 1:
        return text[:j] + text[i:j] + text[j:]
    if kind == 2:
        noise = "".join(rng.choice(_NOISE) for _ in range(rng.randint(1, 6)))
        return text[:i] + noise + text[j:]
    words = [m for m in _WORD.finditer(text) if m.group(1)]
    word = rng.choice(words)
    return text[:word.start()] + rng.choice(words).group() + text[word.end():]
