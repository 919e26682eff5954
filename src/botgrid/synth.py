"""Synthetic labeled corpus generator for desk-scale runs.

Each class owns a disjoint block of signature permissions drawn with
high probability; every other pool permission appears at the noise
rate.  The botnet class gets the larger signature block, so its apps
request more permissions on average.  Output is a directory of
permission-list files plus a data.csv manifest, byte-identical for a
given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ManifestRecord, save_dataset_manifest
from .errors import InvalidSpec
from .manifest import write_names


@dataclass(frozen=True)
class SynthSpec:
    n_botnet: int = 200
    n_benign: int = 200
    pool_size: int = 48
    botnet_signature_size: int = 8
    benign_signature_size: int = 5
    signature_prob: float = 1.0
    noise_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.n_botnet < 1 or self.n_benign < 1:
            raise InvalidSpec("both class sizes must be >= 1")
        if self.botnet_signature_size < 1 or self.benign_signature_size < 1:
            raise InvalidSpec("signature sizes must be >= 1")
        if self.pool_size < self.botnet_signature_size + self.benign_signature_size:
            raise InvalidSpec(
                f"pool size {self.pool_size} cannot hold disjoint signatures of "
                f"{self.botnet_signature_size} + {self.benign_signature_size}"
            )
        if not (0.0 <= self.signature_prob <= 1.0 and 0.0 <= self.noise_rate <= 1.0):
            raise InvalidSpec("signature_prob and noise_rate must lie in [0, 1]")


def pool_permission(i: int) -> str:
    return f"synthetic.permission.P{i:03d}"


def signature_permissions(spec: SynthSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(botnet signature, benign signature); disjoint pool prefixes."""
    pool = [pool_permission(i) for i in range(spec.pool_size)]
    botnet = tuple(pool[: spec.botnet_signature_size])
    benign = tuple(
        pool[spec.botnet_signature_size : spec.botnet_signature_size + spec.benign_signature_size]
    )
    return botnet, benign


def generate_synthetic_corpus(spec: SynthSpec, out_dir) -> list[ManifestRecord]:
    """Write permission-list files and data.csv; returns the records."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pool = [pool_permission(i) for i in range(spec.pool_size)]
    botnet_sig, benign_sig = signature_permissions(spec)
    rng = np.random.default_rng(spec.seed)

    records: list[ManifestRecord] = []
    plan = (("botnet", spec.n_botnet, set(botnet_sig)), ("benign", spec.n_benign, set(benign_sig)))
    for label, count, signature in plan:
        noise_candidates = [p for p in pool if p not in signature]
        signature_sorted = sorted(signature)
        for i in range(count):
            keep_sig = rng.random(len(signature_sorted)) < spec.signature_prob
            keep_noise = rng.random(len(noise_candidates)) < spec.noise_rate
            perms = sorted(
                [p for p, keep in zip(signature_sorted, keep_sig) if keep]
                + [p for p, keep in zip(noise_candidates, keep_noise) if keep]
            )
            name = f"{label}_{i:04d}.txt"
            write_names(perms, out_dir / name)
            records.append(ManifestRecord(str(out_dir / name), label, "permlist"))

    csv_records = [
        ManifestRecord(Path(r.path).name, r.label, r.kind) for r in records
    ]
    save_dataset_manifest(csv_records, out_dir / "data.csv")
    return records
