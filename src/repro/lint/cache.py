"""Content-digest incremental cache for the lint engine.

One JSON file under ``.lint_cache/`` records, per source file, the
SHA-256 of the source it was computed from, the findings of the *local*
passes (det/sem/tim — pure functions of one file), the file's call-graph
summary, and the findings of the cross-file perf pass keyed additionally
by a *hot-slice digest* (the sorted hot functions of that file). The
split makes invalidation exactly as transitive as
the analysis: editing one file re-lints that file's local passes, and
re-runs the perf pass only for files whose hot slice actually changed —
an edit that rewires the call graph in ``a.py`` re-analyses ``b.py``
if and only if ``b``'s hot functions differ, while a comment-only edit
elsewhere re-analyses nothing.

The whole cache is invalidated by a rule-set signature (rule ids + a
digest of this package's own source, so a change to rule *logic* never
serves findings computed by the previous logic) and a config digest, so
`--select`/`--ignore`/`--pass` variations never alias each other's
entries. A corrupt or wrong-schema cache file is treated as empty,
never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping, Optional, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding

#: On-disk schema of the cache file itself.
CACHE_SCHEMA = 1

#: File name inside the cache directory.
CACHE_FILENAME = "cache.json"


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def lint_source_digest() -> str:
    """SHA-256 over the bytes of every ``repro/lint/*.py``, by name."""
    directory = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            digest.update(name.encode("utf-8"))
            with open(os.path.join(directory, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def rules_signature(rule_ids: Tuple[str, ...]) -> str:
    """Identity of the rule catalogue (ids + the code behind them)."""
    payload = lint_source_digest() + ":" + ",".join(sorted(rule_ids))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_digest(config: LintConfig) -> str:
    """Stable digest over every config field that can change findings."""
    payload = json.dumps(
        {
            "select": sorted(config.select),
            "ignore": sorted(config.ignore),
            "passes": sorted(config.passes),
            "protected_packages": list(config.protected_packages),
            "decision_modules": list(config.decision_modules),
            "timer_modules": list(config.timer_modules),
            "penalty_modules": list(config.penalty_modules),
            "params_modules": list(config.params_modules),
            "damping_modules": list(config.damping_modules),
            "executor_modules": list(config.executor_modules),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def hot_slice_digest(hot_functions: List[str]) -> str:
    """Identity of one file's hot slice (the perf-pass cache key)."""
    return hashlib.sha256(
        "\n".join(sorted(hot_functions)).encode("utf-8")
    ).hexdigest()


def finding_from_dict(data: Mapping[str, object]) -> Finding:
    return Finding(
        rule_id=str(data["rule"]),
        message=str(data["message"]),
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        col=int(data.get("col", 0)),  # type: ignore[arg-type]
        end_line=int(data.get("end_line", 0)),  # type: ignore[arg-type]
        severity=str(data.get("severity", "error")),
        suppressed=bool(data.get("suppressed", False)),
        baselined=bool(data.get("baselined", False)),
    )


def _findings_out(findings: List[Finding]) -> List[Dict[str, object]]:
    return [finding.as_dict() for finding in findings]


def _findings_in(data: object) -> Optional[List[Finding]]:
    if not isinstance(data, list):
        return None
    try:
        return [finding_from_dict(entry) for entry in data]
    except (KeyError, TypeError, ValueError):
        return None


class LintCache:
    """Per-file findings/summaries keyed by content digests.

    ``local_hits``/``local_misses``/``perf_hits``/``perf_misses`` are
    exposed so the benchmark and the CI self-check can assert the warm
    path actually short-circuits.
    """

    def __init__(
        self,
        directory: str,
        rules_sig: str,
        config_sig: str,
    ) -> None:
        self.directory = directory
        self.path = os.path.join(directory, CACHE_FILENAME)
        self._rules_sig = rules_sig
        self._config_sig = config_sig
        self._files: Dict[str, Dict[str, object]] = {}
        self.local_hits = 0
        self.local_misses = 0
        self.perf_hits = 0
        self.perf_misses = 0
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(data, dict):
            return
        if data.get("schema") != CACHE_SCHEMA:
            return
        if data.get("rules") != self._rules_sig:
            return
        if data.get("config") != self._config_sig:
            return
        files = data.get("files")
        if isinstance(files, dict):
            self._files = {
                str(path): entry
                for path, entry in files.items()
                if isinstance(entry, dict)
            }

    def save(self, keep_paths: Optional[List[str]] = None) -> None:
        """Persist the cache (optionally pruned to ``keep_paths``)."""
        if keep_paths is not None:
            keep = set(keep_paths)
            self._files = {
                path: entry for path, entry in self._files.items() if path in keep
            }
        os.makedirs(self.directory, exist_ok=True)
        payload = {
            "schema": CACHE_SCHEMA,
            "rules": self._rules_sig,
            "config": self._config_sig,
            "files": self._files,
        }
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, self.path)

    def _entry(self, path: str, sha: str) -> Optional[Dict[str, object]]:
        entry = self._files.get(path)
        if entry is None or entry.get("sha") != sha:
            return None
        return entry

    # -- local (det/sem/tim) pass -------------------------------------

    def local_result(
        self, path: str, sha: str
    ) -> Optional[
        Tuple[List[Finding], List[Finding], Optional[str], Optional[Dict[str, object]]]
    ]:
        """Cached ``(findings, suppressed, parse_error, summary)``."""
        entry = self._entry(path, sha)
        if entry is None:
            self.local_misses += 1
            return None
        local = entry.get("local")
        if not isinstance(local, dict):
            self.local_misses += 1
            return None
        findings = _findings_in(local.get("findings"))
        suppressed = _findings_in(local.get("suppressed"))
        if findings is None or suppressed is None:
            self.local_misses += 1
            return None
        parse_error = entry.get("parse_error")
        summary = entry.get("summary")
        self.local_hits += 1
        return (
            findings,
            suppressed,
            str(parse_error) if parse_error is not None else None,
            summary if isinstance(summary, dict) else None,
        )

    def store_local(
        self,
        path: str,
        sha: str,
        findings: List[Finding],
        suppressed: List[Finding],
        parse_error: Optional[str],
        summary: Optional[Dict[str, object]],
    ) -> None:
        self._files[path] = {
            "sha": sha,
            "parse_error": parse_error,
            "summary": summary,
            "local": {
                "findings": _findings_out(findings),
                "suppressed": _findings_out(suppressed),
            },
        }

    # -- perf pass -----------------------------------------------------

    def perf_result(
        self, path: str, sha: str, hot_digest: str
    ) -> Optional[Tuple[List[Finding], List[Finding]]]:
        """Cached perf ``(findings, suppressed)`` for one hot slice."""
        entry = self._entry(path, sha)
        if entry is None:
            self.perf_misses += 1
            return None
        perf = entry.get("perf")
        if not isinstance(perf, dict) or perf.get("hot_digest") != hot_digest:
            self.perf_misses += 1
            return None
        findings = _findings_in(perf.get("findings"))
        suppressed = _findings_in(perf.get("suppressed"))
        if findings is None or suppressed is None:
            self.perf_misses += 1
            return None
        self.perf_hits += 1
        return findings, suppressed

    def store_perf(
        self,
        path: str,
        sha: str,
        hot_digest: str,
        findings: List[Finding],
        suppressed: List[Finding],
    ) -> None:
        entry = self._entry(path, sha)
        if entry is None:
            return
        entry["perf"] = {
            "hot_digest": hot_digest,
            "findings": _findings_out(findings),
            "suppressed": _findings_out(suppressed),
        }


__all__ = [
    "CACHE_FILENAME",
    "CACHE_SCHEMA",
    "LintCache",
    "config_digest",
    "finding_from_dict",
    "hot_slice_digest",
    "lint_source_digest",
    "rules_signature",
    "source_digest",
]
