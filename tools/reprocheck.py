"""Byte-identity check of the shipped configs: one SHA-256 per output file.

Run from the root of a checkout:

    python3 tools/reprocheck.py

Every file in configs/ runs through labelshift.cli.main (imported from this
checkout's src/) at --threads 1 and --threads 2, into the fixed directory
out/reprocheck/<config name>/threads<N>, which is emptied first. Configs
that read IDX files (sweep_alpha_idx) run on the seed-0 synthetic corpus
that perfbench/idx_corpus.write_corpus writes into out/reprocheck/idx_corpus.
All paths stay relative to the checkout, and every artifact embeds its
resolved config with the paths as given, so two checkouts print comparable
lines:

    (cd parent && python3 tools/reprocheck.py) > parent.txt
    (cd change && python3 tools/reprocheck.py) > change.txt
    diff parent.txt change.txt

The BLAS and OpenMP thread variables are set to 1 before numpy is imported,
as perfbench/run.py does, so hashes from two hosts or shells compare like
with like: the sweep_alpha_idx hashes change with the BLAS thread count.

Standard output holds one "<sha256>  <path>" line per file, sorted by path;
progress goes to standard error. The exit code is 1 if a run fails.
"""

import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS",
)
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("out/reprocheck")
THREADS = (1, 2)
CORPUS_SEED = 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _with_corpus(raw: dict) -> dict:
    """raw with its IDX paths pointing at the seed-0 corpus, written on first use."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from idx_corpus import FILES, write_corpus

    corpus = OUT / "idx_corpus"
    paths = {key: str(corpus / name) for key, name in FILES.items()}
    if not all(Path(p).is_file() for p in paths.values()):
        print(f"writing the seed-{CORPUS_SEED} IDX corpus into {corpus}", file=sys.stderr)
        paths = write_corpus(corpus, CORPUS_SEED)
    return {**raw, "data": {**raw["data"], **paths}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from labelshift import cli

    configs = sorted((ROOT / "configs").glob("*.json"))
    failed = 0
    for config in configs:
        raw = json.loads(config.read_text(encoding="utf-8"))
        if raw.get("data", {}).get("source") == "idx":
            raw = _with_corpus(raw)
        resolved = OUT / f"{config.stem}.json"
        resolved.parent.mkdir(parents=True, exist_ok=True)
        resolved.write_text(json.dumps(raw), encoding="utf-8")
        for threads in THREADS:
            run_dir = OUT / config.stem / f"threads{threads}"
            shutil.rmtree(run_dir, ignore_errors=True)
            print(f"{config.stem} --threads {threads}", file=sys.stderr)
            argv = [raw["kind"], "--config", str(resolved), "--out", str(run_dir),
                    "--threads", str(threads)]
            if cli.main(argv) != 0:
                failed += 1
    for path in sorted(p for c in configs for p in (OUT / c.stem).rglob("*") if p.is_file()):
        print(f"{_digest(path)}  {path.as_posix()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
