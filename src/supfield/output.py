"""Result files: RFC-4180 CSV, JSON reports, and the run MANIFEST.

Floats in CSV bodies are written with 17 significant digits so values
round-trip bit-exactly; identical config + seed therefore reproduces
byte-identical CSV bodies.  The MANIFEST, one YAML mapping whose `config:`
loads back as the run's config, carries the wall time and is the one file
allowed to differ between reruns.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

import yaml

__all__ = ["format_float", "write_csv", "write_json", "Manifest"]


def format_float(x: Any) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """RFC-4180 CSV (CRLF line endings, minimal quoting), 17-digit floats."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class Manifest:
    """Run record: kind, library version, seed, status, wall time, the
    outputs written so far and the config, written as one YAML mapping."""

    def __init__(self, out_dir: Path, kind: str, config: dict, version: str):
        self.out_dir = Path(out_dir)
        self.kind = kind
        self.config = config
        self.version = version
        self.outputs: list[str] = []
        self._t0 = time.monotonic()

    def add_output(self, name: str) -> None:
        self.outputs.append(name)

    def write(self, status: str) -> Path:
        record = {
            "kind": self.kind,
            "library_version": self.version,
            "seed": self.config["seed"],
            "status": status,
            "wall_time_s": round(time.monotonic() - self._t0, 3),
            "outputs": self.outputs,
            "config": self.config,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "MANIFEST"
        path.write_text(yaml.safe_dump(record, sort_keys=False), encoding="utf-8")
        return path
