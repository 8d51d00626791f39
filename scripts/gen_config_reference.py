#!/usr/bin/env python3
"""Generate docs/config_reference.md from the configuration dataclasses."""
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crowdaug.data import SynthConfig
from crowdaug.trainer import TrainConfig

HEADER = """\
# Configuration reference

Config files are flat `key = value` text; `#` starts a comment. Unknown keys
are rejected. Booleans accept true/false/1/0/yes/no. This file is generated
by `scripts/gen_config_reference.py` — do not edit by hand.
"""

SECTIONS = (
    ("Training keys (`train`, `sweep`, `ablate`)", TrainConfig),
    ("Synthesis keys (`synth`)", SynthConfig),
)

EXTRA = """\
## Harness keys

`sweep` additionally reads `sweep_fractions`, `sweep_methods`, `sweep_seeds`
(comma-separated lists, each value at most once); `ablate` reads
`ablate_variants`, `ablate_seeds`.
All other keys in those files configure training as above.
"""


def type_name(tp) -> str:
    return getattr(tp, "__name__", str(tp))


def render() -> str:
    """The reference document, as ``main`` writes it."""
    out = [HEADER]
    for title, cls in SECTIONS:
        out.append(f"## {title}\n")
        out.append("| key | type | default |")
        out.append("| --- | --- | --- |")
        for field in dataclasses.fields(cls):
            out.append(f"| `{field.name}` | {type_name(field.type)} "
                       f"| `{field.default!r}` |")
        out.append("")
    out.append(EXTRA)
    return "\n".join(out)


def main() -> int:
    target = Path(__file__).resolve().parent.parent / "docs" / "config_reference.md"
    target.parent.mkdir(exist_ok=True)
    target.write_text(render(), encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
