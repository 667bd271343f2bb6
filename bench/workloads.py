"""Workloads: the inputs each one generates from its seed, its tasks, and
the checks and work counts of each task.

A task is a list of ``sphcodes`` CLI calls.  ``OUT`` in a call's argv
stands for the file the call writes; the runner gives every attempt its
own file, so all outputs can be checked after the timer stops.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

OUT = object()  # placeholder for a call's output file in its argv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# spoiling: every run builds this panel of atlas seeds; the workload seed
# draws the spoil task's inputs and the order of the tasks.
ATLAS_PANEL = tuple(range(8))
ATLAS_BUDGET = 500
ATLAS_PHI_C = "0.4"

SPOIL_CARD, SPOIL_DIM = 2000, 16
HADAMARD_ORDER = 4  # 16 words of length 16
DOWN_PHI_C = 0.3

THETA_M_MAX = 12


@dataclass
class Task:
    """One closed-loop task: CLI calls, their check and their work count.

    ``check(texts, streams)`` gets the text of each call's output file and
    its (stdout, stderr), raises ``checks.CheckFailed`` on a wrong output,
    and returns the task's counts; ``work`` names the count that is the
    workload's unit of work.  ``expected`` holds the counts made at the
    commit that defined the benchmark, or None where there are none.
    """

    label: str
    calls: list[list]
    check: Callable[[list[str], list[tuple[str, str]]], dict]
    work: str
    expected: dict | None = None

    def argv(self, k: int, out: Path) -> list[str]:
        return [str(out) if a is OUT else a for a in self.calls[k]]


def expected_counts() -> dict:
    path = REFERENCE_DIR / "expected.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def atlas_reference(seed: int) -> str | None:
    path = REFERENCE_DIR / f"atlas-b{ATLAS_BUDGET}-seed{seed}.txt.gz"
    return gzip.decompress(path.read_bytes()).decode() if path.is_file() else None


# ---------------------------------------------------------------------------
# spoiling: the atlas panel and the spoil task
# ---------------------------------------------------------------------------

def atlas_tasks(use_reference: bool = True) -> list[Task]:
    """One ``atlas`` build per panel seed.

    The work of one build varies tenfold with its atlas seed, so every run
    builds the whole panel and does the same work.  Panel seed 3 hits the
    kl_bound domain defect (a point with cos phi in [-1e-12, 0)), so every
    run also records that failed task.  Each build counts its budget of
    spoiling operations.
    """
    tasks = []
    for s in ATLAS_PANEL:

        def check(texts, streams, s=s):
            reference = atlas_reference(s) if use_reference else None
            counts = checks.check_atlas(texts[0], reference)
            return {"ops": ATLAS_BUDGET, **counts}

        tasks.append(Task(
            label=f"atlas seed {s}",
            calls=[["atlas", "--phi-c", ATLAS_PHI_C, "--budget", str(ATLAS_BUDGET),
                    "--seed", str(s), "--out", OUT]],
            check=check, work="ops"))
    return tasks


def _code_text(points: np.ndarray) -> str:
    rows = [f"dim {points.shape[1]}"]
    rows += [" ".join(f"{c:.17g}" for c in p) for p in points]
    return "\n".join(rows) + "\n"


def sylvester_hadamard(order: int) -> np.ndarray:
    h = np.ones((1, 1))
    for _ in range(order):
        h = np.block([[h, h], [h, -h]])
    return h


def spoil_task(rng: np.random.Generator, workdir: Path) -> Task:
    """Projection of a seeded random code, then the down pipeline.

    Call 1 projects a random 2000x16 code off a random line (``--op 2``).
    Call 2 runs ``--op down --phi-c 0.3`` on the embedded 16-word
    Sylvester-Hadamard code with the CLI's default pipeline seed 0: the
    result must be [n, card, cos phi] = [15, 4, -cos(0.3)/15].  Each call
    counts as one spoiling operation.
    """
    x = rng.standard_normal((SPOIL_CARD, SPOIL_DIM))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    line = rng.standard_normal(SPOIL_DIM)
    line /= np.linalg.norm(line)
    line_arg = ",".join(f"{v:.17g}" for v in line)
    random_path = workdir / f"random-{SPOIL_CARD}x{SPOIL_DIM}.txt"
    random_path.write_text(_code_text(x))
    had = sylvester_hadamard(HADAMARD_ORDER)
    had_path = workdir / f"hadamard-{had.shape[0]}.txt"
    had_path.write_text(_code_text(had / math.sqrt(had.shape[1])))
    # the checker sees the coordinates exactly as the program parses them
    x = checks.parse_code(random_path.read_text())
    parsed_line = np.array([float(t) for t in line_arg.split(",")])
    n, card = had.shape[1] - 1, 4
    cos_down = -math.cos(DOWN_PHI_C) / n

    def check(texts, streams):
        a = checks.check_projection(x, parsed_line, texts[0], streams[0][1])
        b = checks.check_spoil_down(texts[1], streams[1][1], n, card, cos_down)
        return {"ops": 2, "points_in": a["points_in"] + had.shape[0],
                "points_out": a["points_out"] + b["points_out"]}

    return Task(
        label="spoil",
        calls=[["spoil", str(random_path), "--op", "2", f"--line={line_arg}",
                "--out", OUT],
               ["spoil", str(had_path), "--op", "down", "--phi-c", str(DOWN_PHI_C),
                "--out", OUT]],
        check=check, work="ops")


def spoiling_tasks(seed: int, workdir: Path, use_reference: bool = True) -> list[Task]:
    """The atlas panel and the spoil task, in an order drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    tasks = atlas_tasks(use_reference) + [spoil_task(rng, workdir)]
    expected = expected_counts().get("spoiling", {})
    for t in tasks:
        t.expected = expected.get(t.label)
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def lattice_tasks(seed: int, workdir: Path) -> list[Task]:
    """Theta series of E8 to norm 12 and its kissing configuration.

    The inputs are fixed; the seed is not used.
    """

    def check(texts, streams):
        a = checks.check_e8_theta(texts[0], THETA_M_MAX)
        b = checks.check_e8_kissing(texts[1], streams[1][0])
        return {"vectors": a["vectors"] + b["vectors"]}

    return [Task(
        label="lattice",
        calls=[["theta", "--lattice", "E8", "--m-max", str(THETA_M_MAX), "--out", OUT],
               ["kissing", "--lattice", "E8", "--out", OUT]],
        check=check, work="vectors",
        expected=expected_counts().get("lattice", {}).get("lattice"))]


WORKLOADS = {"spoiling": spoiling_tasks, "lattice": lattice_tasks}
