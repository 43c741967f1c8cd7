"""Start, observe and stop one ``repro serve`` subprocess.

The server is launched from the checkout's ``src`` tree with the CLI
defaults apart from ``--engine hybrid --port 0`` (plus ``--workers N``
for a cluster).  A cluster also gets ``--snapshot-dir`` pointing inside
the benchmark's work directory, so every file the run creates stays in
the checkout; the path is relative, which keeps the cluster's unix
socket paths short however deep the checkout lies.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

_BANNER = re.compile(r"serving on ([0-9.]+):(\d+)")
_ADMIN = re.compile(r"cluster admin on ([0-9.]+):(\d+)")


class ServerProcess:
    """One server subprocess; ``setup_s`` is spawn-to-banner time."""

    def __init__(self, root: Path, work: Path, edges: Path, *,
                 workers: int = 0, spans_dir: Optional[Path] = None,
                 ) -> None:
        self.root = root
        self.work = work
        self.workers = workers
        argv = ["serve", str(edges.relative_to(root)), "--engine",
                "hybrid", "--port", "0"]
        if workers:
            self.snapshot_dir = work.relative_to(root) / "snapshots"
            argv += ["--workers", str(workers),
                     "--snapshot-dir", str(self.snapshot_dir)]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.cli"] + argv
        else:
            command = [sys.executable,
                       str(Path(__file__).with_name("launcher.py")),
                       str(spans_dir)] + argv
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["TMPDIR"] = str(work)
        env.pop("PYTHONSTARTUP", None)
        self.log = open(work / "server.log", "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True, text=True)
        self.host, self.port = self._await(_BANNER)
        self.setup_s = time.perf_counter() - started
        self.admin = (self._await(_ADMIN) if workers
                      else (self.host, self.port))

    def _await(self, pattern) -> Tuple[str, int]:
        for line in self.proc.stdout:
            match = pattern.search(line)
            if match:
                return match.group(1), int(match.group(2))
        self.stop()
        raise RuntimeError(f"server exited before printing its banner; "
                           f"see {self.work / 'server.log'}")

    # -- observation ---------------------------------------------------
    def pids(self) -> List[int]:
        """The server process and its children (cluster workers)."""
        pids = [self.proc.pid]
        task_dir = Path(f"/proc/{self.proc.pid}/task")
        for task in task_dir.iterdir():
            children = (task / "children").read_text().split()
            pids.extend(int(child) for child in children)
        return pids

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``), summed over the process tree."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` (the merged view in a cluster), as
        ``{series: value}`` with every label set kept in the key."""
        with socket.create_connection(self.admin, timeout=30) as sock:
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
        text = b"".join(chunks).decode().partition("\r\n\r\n")[2]
        series = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
        return series

    def generation_bytes(self) -> int:
        """Size of the generation file ``CURRENT`` names (cluster only)."""
        directory = self.root / self.snapshot_dir
        name = (directory / "CURRENT").read_text().strip()
        return (directory / name).stat().st_size

    # -- shutdown ------------------------------------------------------
    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM (graceful drain), then wait; kill the group if stuck."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(10)
        try:  # forked workers share the session; none may outlive us
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.stdout is not None:
            proc.stdout.close()
        self.log.close()


def sum_series(series: Dict[str, float], name: str) -> float:
    """Sum every label set of one metric (e.g. across cluster workers)."""
    total = 0.0
    for key, value in series.items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def by_label(series: Dict[str, float], name: str, label: str
             ) -> Dict[str, float]:
    """One metric summed per value of ``label``."""
    pattern = re.compile(label + r'="([^"]*)"')
    out: Dict[str, float] = {}
    for key, value in series.items():
        if key.startswith(name + "{"):
            match = pattern.search(key)
            if match:
                out[match.group(1)] = out.get(match.group(1), 0.0) + value
    return out
