"""Indemics in action: SQL-driven epidemic interventions (Algorithm 1).

Builds a synthetic population and contact network, seeds an outbreak, and
runs the paper's Algorithm 1 policy — "vaccinate preschoolers if more
than 1% are sick" — against an uncontrolled baseline and a school-closure
alternative.  The SQL observation queries run against the in-process
relational engine, exactly mirroring Indemics's HPC+RDBMS split.

Run:  python examples/epidemic_intervention.py
"""

from __future__ import annotations


from repro.epidemics import (
    DiseaseParameters,
    IndemicsEngine,
    SchoolClosurePolicy,
    VaccinatePreschoolersPolicy,
    generate_population,
    run_with_policy,
)
from repro.stats import make_rng

DAYS = 80
SEED_INFECTIONS = 8


def attack_rate_among(engine: IndemicsEngine, pids) -> float:
    pids = set(pids)
    infected = sum(
        1
        for pid, record in engine.process.health.items()
        if pid in pids and record.infected_on_day is not None
    )
    return infected / max(len(pids), 1)


def run_scenario(population, policy, label: str) -> None:
    engine = IndemicsEngine(
        population,
        DiseaseParameters(vaccine_efficacy=0.95),
        seed=42,
    )
    engine.seed_infections(SEED_INFECTIONS)
    log = run_with_policy(engine, policy, days=DAYS)

    # Observation via SQL, as the experimenter would issue it:
    recovered = engine.scalar(
        "SELECT COUNT(*) AS n FROM health_state WHERE state = 'R'"
    )
    vaccinated = engine.scalar(
        "SELECT COUNT(*) AS n FROM health_state WHERE vaccinated = true"
    )
    preschool = population.preschoolers()
    triggered = [entry for entry in log if entry.triggered]
    print(f"--- {label} ---")
    print(f"  attack rate (all)        : {engine.attack_rate():.3f}")
    print(
        f"  attack rate (preschool)  : "
        f"{attack_rate_among(engine, preschool):.3f}"
    )
    print(f"  peak infectious          : {engine.peak_infectious()}")
    print(f"  recovered (via SQL)      : {recovered}")
    print(f"  vaccinated (via SQL)     : {vaccinated}")
    if triggered:
        print(
            f"  policy triggered day {triggered[0].day} "
            f"(observed fraction {triggered[0].observed:.4f}, "
            f"action size {triggered[0].action_size})"
        )
    else:
        print("  policy never triggered")
    print()


def main() -> None:
    population = generate_population(400, make_rng(0))
    print(
        f"population: {len(population)} persons, "
        f"{population.num_households} households, "
        f"{len(population.preschoolers())} preschoolers\n"
    )
    run_scenario(population, None, "baseline (no intervention)")
    run_scenario(
        population,
        VaccinatePreschoolersPolicy(threshold=0.01),
        "Algorithm 1: vaccinate preschoolers if > 1% sick",
    )
    run_scenario(
        population,
        SchoolClosurePolicy(threshold=0.02),
        "alternative: close schools if > 2% of population sick",
    )


if __name__ == "__main__":
    main()
