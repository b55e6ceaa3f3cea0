#!/usr/bin/env python
"""Register a brand-new coding scheme and policy — in one file.

The registry makes a codec a self-contained plugin: this script defines
an (8, 14) 3-limited-weight code the paper never evaluates — a design
point *between* the Section 7.5.3 ``lwc12`` (BL12) and the full (8, 17)
3-LWC (BL16) — registers it as the ``lwc14`` scheme plus a
``mil-lwc14`` policy that uses it as MiL's opportunistic long code, and
then drives the stock CLI end-to-end.  No file inside ``src/repro`` is
touched: burst formats, zero tables, ``MiLConfig`` validation, energy
accounting, and ``--policy`` choices all pick the new entries up from
the registries.

Usage::

    python examples/custom_codec.py [--fast]

See docs/EXTENDING.md for the recipe this script demonstrates.
"""

import sys

from repro.cli import main as repro_main
from repro.coding import KLimitedWeightCode, register_codec
from repro.core import MiLPolicy, PolicyContext, register_policy

# ----------------------------------------------------------------------
# 1. The codec.  An (8, 14) 3-LWC: C(14,0..3) = 470 >= 256 codewords of
#    weight <= 3, so every byte fits with at most three 0s on the bus.
#    Fourteen beats over the 64 data pins -> burst length 14, occupying
#    the slot the Figure 20 sweep probes with the codec-less ``bl14``.
#    A codec landing in src/ would also add a per-element reference to
#    tests/codec_oracle.py (see docs/EXTENDING.md).
# ----------------------------------------------------------------------
register_codec(
    "lwc14", burst_length=14, extra_latency=1, layout="line", pins=64,
    description="(8, 14) 3-LWC between lwc12 (BL12) and 3lwc (BL16)",
)(lambda: KLimitedWeightCode(8, 14, 3))


# ----------------------------------------------------------------------
# 2. The policy.  Same opportunistic framework, new long code: MiLC when
#    the rdyX window is busy, the (8, 14) code when it is clear.
# ----------------------------------------------------------------------
@register_policy(
    "mil-lwc14", schemes=("milc", "lwc14"), mil_family=True,
    description="mil with the (8, 14) 3-LWC as its long code",
)
def _build_mil_lwc14(ctx: PolicyContext):
    config = ctx.mil_config(lookahead=ctx.lookahead, long_scheme="lwc14")
    return lambda: MiLPolicy(config, ctx.zeros_by_scheme)


def main() -> int:
    scale = "800" if "--fast" in sys.argv else "2500"
    # The stock CLI, unmodified: --policy now accepts mil-lwc14 because
    # the parser reads its choices from the policy registry, and the run
    # resolves every codec — including lwc14 — through the codec registry.
    return repro_main([
        "run", "CG", "--policy", "mil-lwc14", "--scale", scale,
        "--baseline",
    ])


if __name__ == "__main__":
    sys.exit(main())
