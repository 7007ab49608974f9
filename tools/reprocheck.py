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

Standard output holds one "<sha256>  <path>" line per file, sorted by path,
then one "<sha256>  <path> (body)" line per file in the same order. A file's
body is what it holds apart from its echoed config: a CSV's text after its
"# config=" line, or a summary without config, dumped with sorted keys. So a
change that only adds or drops a config field changes every file line and no
body line. Progress goes to standard error.

The tool also checks that the thread count changes no result: each config's
files at --threads 2 must match those at --threads 1 in every CSV line after
the "# config=" line, and in every summary apart from config.threads and
config.out_dir. The exit code is 1 if a run fails or a file differs; standard
error names the first file that differs.
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


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _body(path: Path) -> str:
    """path's text apart from its echoed config: a CSV's lines after its "# config=" line, or
    a summary without config, dumped with sorted keys."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".csv":
        return text.split("\n", 1)[1]
    summary = json.loads(text)
    del summary["config"]
    return json.dumps(summary, sort_keys=True)


def _comparable(path: Path):
    """What the thread count must not change: a CSV's body, or a summary without the config's
    threads and out_dir."""
    if path.suffix == ".csv":
        return _body(path)
    summary = json.loads(path.read_text(encoding="utf-8"))
    del summary["config"]["threads"], summary["config"]["out_dir"]
    return summary


def _first_mismatch(config: Path) -> Path | None:
    """The first of config's --threads 2 files that differs from its --threads 1 file
    (_comparable), or that only one of the two runs wrote."""
    one, two = (OUT / config.stem / f"threads{n}" for n in THREADS)
    names = {p.relative_to(r) for r in (one, two) for p in r.rglob("*") if p.is_file()}
    for name in sorted(names):
        a, b = one / name, two / name
        if not (a.is_file() and b.is_file()) or _comparable(a) != _comparable(b):
            return b
    return None


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
        if "train_images" in raw.get("data", {}):
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
    files = sorted(p for c in configs for p in (OUT / c.stem).rglob("*") if p.is_file())
    for path in files:
        print(f"{_digest(path.read_bytes())}  {path.as_posix()}")
    for path in files:
        print(f"{_digest(_body(path).encode())}  {path.as_posix()} (body)")
    for config in configs:
        mismatch = _first_mismatch(config)
        if mismatch is not None:
            print(f"{mismatch.as_posix()} differs from its --threads 1 run", file=sys.stderr)
            return 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
