"""The single configuration object of a staged pipeline run.

A :class:`PipelineConfig` pins down everything a run depends on — the
design source (a netlist file or a paper benchmark instance), grid
dimensions, layer stack, overlay cost weights, and the
bitmap resolution of the decomposition engine. Stages declare which
*slice* of the config they depend on (see ``stages.py``), and only that
slice enters their content hash, so changing e.g. ``bitmap_resolution``
invalidates decompose/verify but leaves routing artifacts valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import PipelineError
from ..router.cost import CostParams
from ..units import DEFAULT_BITMAP_RESOLUTION_NM
from .store import default_cache_dir

#: Router names the route stage can instantiate (the CLI's ``--router``).
KNOWN_ROUTERS = ("ours", "gao-pan", "cut16", "du")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run depends on.

    Exactly one design source must be set: ``netlist`` (path to a text
    design file; requires ``width``/``height``) or ``circuit`` (a paper
    benchmark name, ``Test1``..``Test10``, instantiated at ``scale`` with
    ``seed``).
    """

    # --- design source ------------------------------------------------- #
    netlist: Optional[str] = None
    circuit: Optional[str] = None
    scale: float = 0.15
    seed: int = 2014

    # --- grid ---------------------------------------------------------- #
    width: Optional[int] = None
    height: Optional[int] = None
    num_layers: int = 3

    # --- routing ------------------------------------------------------- #
    router: str = "ours"
    order: str = "hpwl"
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.5
    delta_tip: float = 0.5
    flip_threshold: float = 10.0
    #: Extra keyword arguments for the router constructor (must be
    #: JSON-serialisable; they enter the route stage's hash).
    router_options: Optional[Dict[str, Any]] = None

    # --- decomposition ------------------------------------------------- #
    bitmap_resolution: int = DEFAULT_BITMAP_RESOLUTION_NM

    # --- artifact store (not hashed; $REPRO_CACHE_DIR overrides the
    # --- .repro_cache default) ----------------------------------------- #
    cache_dir: str = field(default_factory=default_cache_dir)

    def validate(self) -> None:
        if (self.netlist is None) == (self.circuit is None):
            raise PipelineError(
                "config needs exactly one design source: netlist=<path> "
                "or circuit=<Test1..Test10>"
            )
        if self.netlist is not None and (self.width is None or self.height is None):
            raise PipelineError(
                "netlist designs need explicit grid dimensions "
                "(width and height, in tracks)"
            )
        if self.circuit is not None and not 0.0 < self.scale <= 1.0:
            raise PipelineError(f"scale must be in (0, 1], got {self.scale}")
        if self.num_layers <= 0:
            raise PipelineError(f"need at least one layer, got {self.num_layers}")
        if self.router not in KNOWN_ROUTERS:
            raise PipelineError(
                f"unknown router {self.router!r}; choose from {KNOWN_ROUTERS}"
            )
        if self.bitmap_resolution <= 0:
            raise PipelineError(
                f"bitmap_resolution must be positive, got {self.bitmap_resolution}"
            )

    def cost_params(self) -> CostParams:
        """The overlay-aware router's cost knobs from this config."""
        return CostParams(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            delta_tip=self.delta_tip,
            flip_threshold=self.flip_threshold,
        )

    # ------------------------------------------------------------------ #
    # Per-stage config slices (what enters each stage's content hash)
    # ------------------------------------------------------------------ #

    def design_slice(self) -> Dict[str, Any]:
        if self.netlist is not None:
            # The file's *content* hash is added by the stage fingerprint;
            # the path itself stays out so moving a file is not a miss.
            return {
                "mode": "netlist",
                "width": self.width,
                "height": self.height,
                "num_layers": self.num_layers,
            }
        return {
            "mode": "benchmark",
            "circuit": self.circuit,
            "scale": self.scale,
            "seed": self.seed,
            "num_layers": self.num_layers,
        }

    def grid_slice(self) -> Dict[str, Any]:
        # Dimensions live in the design artifact (whose hash is already an
        # input); nothing extra to pin here.
        return {}

    def route_slice(self) -> Dict[str, Any]:
        return {
            "router": self.router,
            "order": self.order,
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "delta_tip": self.delta_tip,
            "flip_threshold": self.flip_threshold,
            "router_options": dict(self.router_options or {}),
        }

    def decompose_slice(self) -> Dict[str, Any]:
        return {"bitmap_resolution": self.bitmap_resolution}
