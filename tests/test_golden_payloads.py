"""The --format json payloads of the long verify and sweep commands, of the
even-q and p = 7 verify paths and of a small and a large census, pinned by
sha256."""

import contextlib
import hashlib
import io
import json

import pytest

from anisogauge.cli import main

GOLDEN = {
    ("verify", "3", "23"): "f8ac4c12b38f550edd7ae691ae8a7529baa6689baba989793a77edc973d6c7b0",
    ("verify", "5", "19"): "6367ea3de916b4daf0eeebc083b9f86f6ab1d12d6756dbef4416c1d942e46ff9",
    ("sweep", "20"): "36d71b73943f565a6a9edb60550f5c43865c4f11ba1bf0d41a0c3495ee6d1147",
    ("census", "5", "19"): "2153f6e67df7ae34754902e3bc410e5edbea3d5fce12c0ec4e243707e4498465",
    ("verify", "3", "5"): "96229ea486c2f44514635a8161193b623215451e6f32c5c75291a68c9415eb2d",
    ("verify", "3", "2"): "4808e274445d4e14ed505aa225bae4be5aadc866381eb59b87d1a52d367d63d3",
    ("verify", "7", "13"): "0d6a7a11e0a94e4db2f372cb744f84958ba1ebe1aac7637dba76ce3ae7b5ec0d",
    ("census", "3", "1013"): "76b72132ecb8384e0529fbfc509660e117a3abb93057bd65b5812ba818f8b1a2",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_json_payload_matches_pinned_sha256(argv, monkeypatch):
    monkeypatch.delenv("ANISOGAUGE_BOUND", raising=False)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--format", "json"])
    assert code == 0
    payload = json.loads(buf.getvalue())
    digest = payload.pop("sha256")
    body = json.dumps(payload, separators=(",", ":")).encode()
    assert hashlib.sha256(body).hexdigest() == digest == GOLDEN[argv]
