"""Control parameters of the GRA (Section 4, "Control Parameters").

The paper fixes ``N_p = 50``, ``N_g = 80``, ``mu_m = 0.01`` and
``mu_c = 0.9`` after experimentation (Grefenstette's classic ranges are
``N_p in {30, 100}``, ``mu_c in {0.9, 0.6}``, ``mu_m in {0.01, 0.001}``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ValidationError


@dataclass(frozen=True)
class GAParams:
    """Tunable knobs of :class:`repro.algorithms.gra.GRA`.

    Attributes
    ----------
    population_size:
        ``N_p`` — chromosomes surviving each generation (the ``mu`` of the
        (mu + lambda) scheme).
    generations:
        ``N_g`` — number of generations to evolve.
    crossover_rate:
        ``mu_c`` — probability a parent pair undergoes two-point crossover.
    mutation_rate:
        ``mu_m`` — per-bit flip probability.
    elite_interval:
        Inject the best-ever chromosome over the current worst every this
        many generations (paper: 5, to avoid premature convergence).
    perturbed_fraction:
        Share of the SRA-seeded initial population subjected to random
        perturbation (paper: one half).
    perturbation_share:
        Fraction of a perturbed chromosome's bits considered for toggling
        (paper: one quarter), validity preserved.
    selection:
        ``"mu+lambda"`` (paper) or ``"simple"`` (plain SGA sampling space,
        kept for the ``gra-design`` ablation).
    elitism:
        Keep the elite re-injection enabled (disable for the ablation).
    seeded_init:
        Initialise from randomised SRA runs (paper) or uniformly random
        valid chromosomes (ablation).
    """

    population_size: int = 50
    generations: int = 80
    crossover_rate: float = 0.9
    mutation_rate: float = 0.01
    elite_interval: int = 5
    perturbed_fraction: float = 0.5
    perturbation_share: float = 0.25
    selection: str = "mu+lambda"
    elitism: bool = True
    seeded_init: bool = True

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValidationError(
                f"population_size must be >= 2, got {self.population_size}"
            )
        if self.generations < 0:
            raise ValidationError(
                f"generations must be >= 0, got {self.generations}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValidationError(
                f"crossover_rate must lie in [0, 1], got {self.crossover_rate}"
            )
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValidationError(
                f"mutation_rate must lie in [0, 1], got {self.mutation_rate}"
            )
        if self.elite_interval < 1:
            raise ValidationError(
                f"elite_interval must be >= 1, got {self.elite_interval}"
            )
        if not 0.0 <= self.perturbed_fraction <= 1.0:
            raise ValidationError(
                "perturbed_fraction must lie in [0, 1], got "
                f"{self.perturbed_fraction}"
            )
        if not 0.0 <= self.perturbation_share <= 1.0:
            raise ValidationError(
                "perturbation_share must lie in [0, 1], got "
                f"{self.perturbation_share}"
            )
        if self.selection not in ("mu+lambda", "simple"):
            raise ValidationError(
                f"selection must be 'mu+lambda' or 'simple', got "
                f"{self.selection!r}"
            )

    def with_overrides(self, **kwargs: object) -> "GAParams":
        return replace(self, **kwargs)  # type: ignore[arg-type]


#: the paper's fixed parameterisation
PAPER_PARAMS = GAParams()

__all__ = ["GAParams", "PAPER_PARAMS"]
