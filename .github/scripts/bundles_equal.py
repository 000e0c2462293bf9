"""Check that this tree's pipeline writes the same bundles as another tree's.

Usage (from the repository root):

    python3 .github/scripts/bundles_equal.py BASE_TREE WORK_DIR

For each benchmark workload (bench/workloads.py's BUILDERS, imported
read-only) at seeds 7 and 11, the inputs are written once into WORK_DIR.
Then `python -m ddoscope.cli pipeline --config ... --out ...` runs once with
each tree's src/ on PYTHONPATH, and `diff -r` compares the two bundles,
manifest.json included. Exits non-zero naming every bundle that differs.
"""

import os
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(HEAD / "bench"))

from workloads import BUILDERS  # noqa: E402


def main(base: Path, work: Path) -> int:
    differ = []
    for name in sorted(BUILDERS):
        for seed in (7, 11):
            inputs = work / f"{name}-{seed}"
            inputs.mkdir(parents=True)
            config = BUILDERS[name](inputs, seed).config
            bundles = []
            for label, tree in (("head", HEAD), ("base", base)):
                out = work / f"{name}-{seed}-{label}"
                subprocess.run([sys.executable, "-m", "ddoscope.cli", "pipeline", "--config", str(config),
                                "--out", str(out)], env={**os.environ, "PYTHONPATH": str(tree / "src")},
                               check=True, stdout=subprocess.DEVNULL)
                bundles.append(str(out))
            same = subprocess.run(["diff", "-r", *bundles]).returncode == 0
            print(f"{name} seed {seed}: {'same' if same else 'DIFFERENT'}")
            if not same:
                differ.append(f"{name} seed {seed}")
    if differ:
        print(f"bundles differ from the base tree's: {', '.join(differ)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()))
