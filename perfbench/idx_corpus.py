"""Seeded synthetic image corpus in the IDX format of MNIST.

Each of the ten classes has a fixed random ink template; an image is its
class template plus Gaussian pixel noise, clipped to bytes. The classes are
separable, the shapes match MNIST (60000 train and 10000 test images of
28x28), and the same seed always writes the same bytes.
"""

import struct
from pathlib import Path

import numpy as np

ROWS = COLS = 28
CLASSES = 10
N_TRAIN = 60000
N_TEST = 10000
INK_FRACTION = 0.2
INK_LEVEL = 200.0
NOISE_SIGMA = 60.0
CHUNK = 5000  # rows generated at a time, to keep the writer's memory small

FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def _write_split(rng, templates, n, images_path: Path, labels_path: Path) -> None:
    labels = rng.integers(0, CLASSES, size=n).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, ROWS, COLS))
        for start in range(0, n, CHUNK):
            y = labels[start : start + CHUNK]
            noise = rng.standard_normal((y.size, ROWS * COLS), dtype=np.float32)
            pixels = templates[y] + NOISE_SIGMA * noise
            f.write(np.clip(pixels, 0, 255).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, n))
        f.write(labels.tobytes())


def write_corpus(directory: Path, seed: int) -> dict[str, str]:
    """Write the four IDX files into directory; returns the config paths."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D8]))
    ink = rng.random((CLASSES, ROWS * COLS)) < INK_FRACTION
    templates = (INK_LEVEL * ink).astype(np.float32)
    paths = {key: str(directory / name) for key, name in FILES.items()}
    _write_split(rng, templates, N_TRAIN, Path(paths["train_images"]), Path(paths["train_labels"]))
    _write_split(rng, templates, N_TEST, Path(paths["test_images"]), Path(paths["test_labels"]))
    return paths
