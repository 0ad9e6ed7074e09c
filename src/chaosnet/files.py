"""The one file writer of the package: the model, the checkpoint and every output."""

import os


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as ASCII, whole or not at all: only a
    complete file, flushed to disk, is renamed over the previous one, and the
    temporary file beside it is removed whatever happens."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


__all__ = ["write_atomic"]
