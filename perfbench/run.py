#!/usr/bin/env python3
"""End-to-end benchmark for cfmc, cfmd, cfmproof-check and cfmfuzz.

Run from the repository root:

    python3 perfbench/run.py --workload cold-1m --seed 1 --seconds 10 --trace 0

It builds the tools from this checkout (Release, into .bench_build/), makes
every input from --seed with `cfmc gen`, runs one user session against the
real binaries and checks every verdict against how the inputs were built.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 re-runs
the session's commands through the in-process span recorder (cfmtrace,
built from perfbench/) and reports the per-layer metrics instead.
See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
TOOLS = ["cfmc", "cfmd", "cfmproof-check", "cfmfuzz", "cfmtrace"]
# cfmc batch --jobs and the width of the input generator: 4, but never more
# than the host's CPUs, so the load generator stays within nproc threads.
JOBS = min(4, os.cpu_count() or 1)
FUZZ_SEED = 7       # The fuzz campaign is fixed-seed so its case mix is stable.
# Statement counts of the probe programs per step: large enough that a
# one-shot command is not mostly process start-up, small enough to repeat.
PROBE = dict(check=20_000, daemon=10_000, proof=2_000)
SETUP_REPEATS = 3
UNTRACED_RUNS = 3  # Untraced runs of each step in --trace 1; overhead uses their median.
EDITS_PER_VIOLATION = 200
EDITS_PER_ROUND = 1000  # Literal edits in edit-session's focus session.
PROBE_EDITS = 500       # ... and in a probe session of the other workloads.
# The probe programs: fixed generator seeds, one program per seed, used in
# turn by the rounds. Fixed like the fuzz campaign's seed, so a probe step
# repeats the same work on every run and seed.
PROBE_SEEDS = (1, 2, 3)
MIN_ROUNDS = 4
# Probe steps short enough to repeat within a round, and how often: more
# samples of a 10-100 ms process steady its median.
PROBE_REPEATS = {"check": 3, "corpus": 2}
BATCH_REPEATS = 3  # cfmc batch runs per corpus step (each one a fraction of a second).
KEEP = 64 * 1024

# Per workload: statement counts of the program each step runs on, the batch
# corpus size and the fuzz case count. Every workload runs every step so every
# end-to-end metric is read on every workload; the step a workload is named
# for (its focus) gets the large input made from --seed and the measuring
# time, the others run as probes on fixed PROBE-sized programs.
WORKLOADS = {
    "cold-1m": dict(PROBE, check=1_000_000, corpus=120, fuzz=50, focus="check"),
    "edit-session": dict(PROBE, daemon=100_000, corpus=120, fuzz=50, focus="daemon"),
    "proof-chain": dict(PROBE, proof=50_000, corpus=120, fuzz=50, focus="proof"),
    "many-small": dict(PROBE, corpus=600, fuzz=200, focus="corpus"),
}
# The smoke profile divides every size by this (tests use it).
SMOKE_DIVISOR = 100

E2E_METRICS = [
    ("setup_s", "s"), ("check_s", "s"), ("check_rss_mb", "MB"), ("lint_s", "s"),
    ("daemon_cold_s", "s"), ("edit_p50_ms", "ms"),
    ("violation_roundtrip_ms", "ms"), ("cert_emit_s", "s"), ("cert_verify_s", "s"),
    ("prove_s", "s"), ("prove_rss_mb", "MB"), ("checkproof_s", "s"),
    ("batch_stmts_per_s", "stmt/s"), ("fuzz_cases_per_s", "case/s"),
]

HIGH_DECL = "  h : integer class high;\n"
PLANTED = "  x0 := h;\n"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Fatal(Exception):
    """A setup problem: the benchmark exits non-zero without a result."""


# --------------------------------------------------------------------------
# Build and stamp


def build(build_dir):
    """Configures (once) and builds the tools; build output goes to stderr."""
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            raise Fatal(f"{needed} is missing: run from a full checkout of the repository")
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise Fatal("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
           "--target", *TOOLS]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise Fatal("build failed")


def cache_value(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def check_release(build_dir, bins):
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    proc = subprocess.run([bins["cfmtrace"], "build-info"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise Fatal("cfmtrace build-info failed")
    info = json.loads(proc.stdout)
    if build_type != "Release" or not info["ndebug"]:
        raise Fatal(f"refusing to benchmark a non-Release build "
                    f"(CMAKE_BUILD_TYPE={build_type!r}, NDEBUG={info['ndebug']})")
    return build_type, info["compiler"]


def source_digest():
    """Identifies the code measured: src/, tools/ and the benchmark's own
    code (not its documents or recorded results)."""
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if (path.is_file() and path.suffix not in (".md", ".json")
                    and "__pycache__" not in path.parts):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


# --------------------------------------------------------------------------
# Measuring child processes


class Child:
    """One finished child process: CPU and wall time, peak RSS, exit status
    and stdout."""

    def __init__(self, cpu, wall, rss_mb, code, head, tail):
        self.cpu, self.wall, self.rss_mb, self.code = cpu, wall, rss_mb, code
        self.head, self.tail = head, tail


def run_child(spawn, argv, cwd, keep_all=False):
    """Runs argv to completion through `cfmtrace spawn` (path `spawn`),
    draining stdout as it comes. Keeps all of stdout when keep_all, else its
    first and last 64 KiB (`head`/`tail`). Wall and CPU time (user + system,
    every thread) and peak RSS are the command's own, from wait4 in that
    small process: a child forked from this interpreter would inherit its
    resident size as the floor of its peak RSS."""
    report = Path(cwd) / "spawn-report.json"
    report.unlink(missing_ok=True)
    proc = subprocess.Popen([spawn, "spawn", str(report), *argv], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    head, tail, chunks = b"", b"", []
    try:
        while True:
            chunk = proc.stdout.read(1 << 20)
            if not chunk:
                break
            if keep_all:
                chunks.append(chunk)
            else:
                if len(head) < KEEP:
                    head += chunk[:KEEP - len(head)]
                tail = (tail + chunk)[-KEEP:]
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.stdout.close()
    if not report.is_file():
        raise Fatal(f"cfmtrace spawn wrote no report for {argv[0]} (exit {proc.returncode})")
    usage = json.loads(report.read_text())
    if keep_all:
        head = tail = b"".join(chunks)
    return Child(usage["cpu_s"], usage["wall_s"], usage["maxrss_kb"] / 1024.0,
                 usage["code"], head.decode("utf-8", "replace"),
                 tail.decode("utf-8", "replace"))


class Ledger:
    """Counts attempted operations and the ones whose result was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"perfbench: WRONG RESULT: {what}")
        return ok


# --------------------------------------------------------------------------
# Inputs


def plant(text):
    """The annotated program and its planted twin. Every generated variable
    is unannotated (low); `h` is the only high one, so the plain program
    certifies and the twin's `x0 := h` is rejected, by construction."""
    if not text.startswith("var\n") or "\nbegin\n" not in text:
        raise Fatal("unexpected `cfmc gen` output shape")
    plain = "var\n" + HIGH_DECL + text[4:]
    at = plain.index("\nbegin\n") + len("\nbegin\n")
    return plain, plain[:at] + PLANTED + plain[at:]


def gen_text(bins, work, stmts, seed):
    tmp = work / f"gen-{stmts}-{seed}.tmp"
    proc = subprocess.run([bins["cfmc"], "gen", str(tmp), f"--scale={stmts}",
                           f"--seed={seed}"], stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise Fatal(f"cfmc gen failed: {proc.stderr.decode(errors='replace')}")
    text = tmp.read_text()
    tmp.unlink()
    return text


def corpus_plan(rng, count):
    """(name, statements, gen seed, twin?) per corpus program: sizes are
    log-uniform over 30..3000 statements, one drawn from each of `count`
    equal strata (so the corpus's total size barely moves with the seed),
    in shuffled order; about one in eight programs is a twin."""
    strata = list(range(count))
    rng.shuffle(strata)
    plan = []
    for i, stratum in enumerate(strata):
        stmts = int(round(30 * 100 ** ((stratum + rng.random()) / count)))
        plan.append((f"p{i:04d}.cfm", stmts, rng.randrange(1 << 30), rng.random() < 0.125))
    if not any(twin for *_, twin in plan):
        name, stmts, seed, _ = plan[0]
        plan[0] = (name, stmts, seed, True)
    return plan


def make_corpus(bins, work, plan):
    corpus = work / "corpus"
    corpus.mkdir()

    def one(entry):
        name, stmts, seed, twin = entry
        plain, planted = plant(gen_text(bins, corpus, stmts, seed))
        (corpus / name).write_text(planted if twin else plain)

    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        list(pool.map(one, plan))
    return corpus


def program_name(stmts, variant=0, twin=False):
    return f"prog-{stmts}-{variant}{'_twin' if twin else ''}.cfm"


class Inputs:
    """The generator seed of every program, the corpus plan and the edit
    streams. The focus step's inputs come from --seed; probe inputs (the
    programs, the edit streams and the corpus) are fixed."""

    def __init__(self, profile, seed):
        rng = random.Random(seed)
        focus = profile["focus"]
        self.variants, self.seeds = {}, {}
        for step in ("check", "daemon", "proof"):
            stmts = profile[step]
            if step == focus:
                self.variants[stmts] = 1
                self.seeds[(stmts, 0)] = rng.randrange(1 << 30)
            elif stmts not in self.variants:
                self.variants[stmts] = len(PROBE_SEEDS)
                self.seeds.update({(stmts, v): s for v, s in enumerate(PROBE_SEEDS)})
        self.plan = corpus_plan(rng if focus == "corpus" else random.Random(PROBE_SEEDS[0]),
                                profile["corpus"])
        self.edit_seed = rng.randrange(1 << 30) if focus == "daemon" else 0
        self.twin_size = profile["proof"]  # Only the proof chain runs a twin.


def set_up(bins, work, inputs):
    """Generates every input into `work` and starts cfmd; returns the daemon."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for (stmts, variant), seed in inputs.seeds.items():
        plain, twin = plant(gen_text(bins, work, stmts, seed))
        (work / program_name(stmts, variant)).write_text(plain)
        if stmts == inputs.twin_size:
            (work / program_name(stmts, variant, twin=True)).write_text(twin)
    make_corpus(bins, work, inputs.plan)
    return Daemon(bins, work)


# --------------------------------------------------------------------------
# cfmd client


class Daemon:
    """A cfmd child serving a socket in the work directory, with one client
    connection (the closed-loop load generator)."""

    def __init__(self, bins, work):
        # AF_UNIX paths are short; a path relative to the repository root
        # keeps it short wherever the checkout lives.
        self.path = os.path.relpath(work / "cfmd.sock", ROOT)
        self.proc = subprocess.Popen([bins["cfmd"], f"--socket={self.path}"], cwd=ROOT,
                                     stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 30
        while True:
            try:
                self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                self.sock.connect(self.path)
                break
            except OSError:
                self.sock.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise Fatal("cfmd did not come up")
                time.sleep(0.002)
        if self._receive() != {"cfmd": 1}:
            self.stop()
            raise Fatal("cfmd handshake mismatch")
        self.schedstat = open(f"/proc/{self.proc.pid}/schedstat", "rb", buffering=0)
        self.startup_cpu = self.cpu_seconds()
        self.served = 0  # Requests sent so far.

    def _send(self, payload):
        body = json.dumps(payload).encode()
        self.sock.sendall(struct.pack(">I", len(body)) + body)

    def _receive(self):
        header = self._exactly(4)
        return json.loads(self._exactly(struct.unpack(">I", header)[0]))

    def _exactly(self, count):
        buf = bytearray()
        while len(buf) < count:
            chunk = self.sock.recv(min(count - len(buf), 1 << 20))
            if not chunk:
                raise Fatal("cfmd closed the connection")
            buf += chunk
        return bytes(buf)

    def cpu_seconds(self):
        """CPU time cfmd (single-threaded) has used so far, from schedstat."""
        self.schedstat.seek(0)
        return int(self.schedstat.read().split()[0]) / 1e9

    def request(self, payload):
        """One round trip; returns (response, wall seconds, cfmd CPU seconds)."""
        self.served += 1
        cpu = self.cpu_seconds()
        start = time.perf_counter()
        self._send(payload)
        response = self._receive()
        wall = time.perf_counter() - start
        return response, wall, self.cpu_seconds() - cpu

    def resident_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self):
        if self.proc.poll() is None:
            try:
                self._send({"method": "shutdown"})
                self.proc.wait(timeout=30)
            except (OSError, Fatal, subprocess.TimeoutExpired, ValueError):
                self.proc.kill()
                self.proc.wait()
        self.sock.close()
        if hasattr(self, "schedstat"):
            self.schedstat.close()


# --------------------------------------------------------------------------
# The session steps. Each appends timings to `samples` and checks every
# result against the answer the inputs were built to have.

LITERAL = re.compile(r"(?<![A-Za-z0-9_])[0-9](?![A-Za-z0-9_])")
LINT_KNOWN = "variable 'h' is never used [dead-assign]"


class Session:
    def __init__(self, bins, work, ledger, inject):
        self.bins, self.work, self.ledger = bins, work, ledger
        self.daemon = None
        self.inject = inject
        self.samples = {name: [] for name, _ in E2E_METRICS}  # CPU time based.
        self.walls = {name: [] for name, _ in E2E_METRICS}    # The same, wall clock.
        self.requests = None  # A list when the daemon requests are recorded.

    def record(self, metric, child):
        self.samples[metric].append(child.cpu)
        self.walls[metric].append(child.wall)

    def run(self, argv, keep_all=False):
        return run_child(self.bins["cfmtrace"], argv, self.work, keep_all=keep_all)

    def cfmc(self, *args, keep_all=False):
        return self.run([self.bins["cfmc"], *args], keep_all=keep_all)

    def check_and_lint(self, program):
        expected = 1 if self.inject == "wrong-verdict" else 0
        check = self.cfmc("check", program)
        self.ledger.expect(check.code == expected and "\nCFM: CERTIFIED\n" in check.head,
                           f"cfmc check {program}: exit {check.code}")
        self.record("check_s", check)
        self.samples["check_rss_mb"].append(check.rss_mb)
        lint = self.cfmc("lint", program)
        summary = re.search(r"lint: (\d+) error\(s\), \d+ warning\(s\)\n$", lint.tail)
        self.ledger.expect(
            summary is not None and LINT_KNOWN in lint.head
            and lint.code == (1 if int(summary.group(1)) else 0),
            f"cfmc lint {program}: exit {lint.code}")
        self.record("lint_s", lint)
        return lint

    def proof_chain(self, plain, twin, keep=False):
        cert, twin_cert, proof = "chain.cfmcert", "twin.cfmcert", "chain.proof"
        for stale in (cert, twin_cert, proof):
            (self.work / stale).unlink(missing_ok=True)
        emit = self.cfmc("check", plain, f"--emit-cert={cert}")
        self.ledger.expect(emit.code == 0 and (self.work / cert).is_file(),
                           f"cfmc check --emit-cert {plain}: exit {emit.code}")
        self.record("cert_emit_s", emit)
        emit_twin = self.cfmc("check", twin, f"--emit-cert={twin_cert}")
        self.ledger.expect(emit_twin.code == 1 and not (self.work / twin_cert).exists(),
                           f"cfmc check --emit-cert {twin}: exit {emit_twin.code}")
        if self.inject == "tamper-cert":
            tamper(self.work / cert)
        verify = self.run([self.bins["cfmproof-check"], cert])
        self.ledger.expect(verify.code == 0 and "verified program" in verify.head,
                           f"cfmproof-check {cert}: exit {verify.code}")
        self.record("cert_verify_s", verify)
        prove = self.cfmc("prove", plain, f"--emit-proof={proof}")
        self.ledger.expect(prove.code == 0 and "\nproof verified: " in prove.tail
                           and (self.work / proof).is_file(),
                           f"cfmc prove {plain}: exit {prove.code}")
        self.record("prove_s", prove)
        self.samples["prove_rss_mb"].append(prove.rss_mb)
        check = self.cfmc("checkproof", plain, f"--proof={proof}")
        self.ledger.expect(check.code == 0 and "establish the annotated policy" in check.head,
                           f"cfmc checkproof {plain}: exit {check.code}")
        self.record("checkproof_s", check)
        if not keep:
            for stale in (cert, proof):
                (self.work / stale).unlink(missing_ok=True)

    def batch(self, plan):
        run = self.cfmc("batch", "corpus", f"--jobs={JOBS}")
        twins = sum(1 for *_, twin in plan if twin)
        summary = re.search(r"batch: (\d+) programs against .*, (\d+) certified, (\d+) rejected, "
                            r"(\d+) errors\n\s+(\d+) statements in", run.tail)
        counts = tuple(int(g) for g in summary.groups()[:4]) if summary else None
        self.ledger.expect(counts == (len(plan), len(plan) - twins, twins, 0)
                           and run.code == (1 if twins else 0),
                           f"cfmc batch: exit {run.code}, counts {counts}")
        if summary:
            # Wall clock, unlike the other metrics: what --jobs=4 buys is
            # parallelism, which CPU time summed over the workers cannot see.
            self.samples["batch_stmts_per_s"].append(int(summary.group(5)) / run.wall)
            self.walls["batch_stmts_per_s"].append(int(summary.group(5)) / run.wall)
        return run

    def fuzz(self, cases):
        run = self.run([self.bins["cfmfuzz"], f"--seed={FUZZ_SEED}", f"--cases={cases}",
                        "--no-reduce", "--quiet"])
        fails = [int(m.group(1)) for m in re.finditer(r"^\S+\s+\d+\s+\d+\s+(\d+)$",
                                                      run.head, re.M)]
        self.ledger.expect(run.code == 0 and f"cases run: {cases}\n" in run.head
                           and len(fails) == 11 and not any(fails),
                           f"cfmfuzz --cases={cases}: exit {run.code}")
        self.samples["fuzz_cases_per_s"].append(cases / run.cpu)
        self.walls["fuzz_cases_per_s"].append(cases / run.wall)

    # -- daemon --

    def doc_request(self, kind, **doc):
        payload = {"method": "check", "file": "session.cfm", "lattice": "two", "json": True,
                   **doc}
        if self.requests is not None:
            self.requests.append((kind, payload))
        return self.daemon.request(payload)

    def expect_doc(self, response, certified, what):
        output = response.get("output", "")
        return self.ledger.expect(
            response.get("ok") is True and response.get("exit") == (0 if certified else 1)
            and f'"certified":{"true" if certified else "false"}' in output
            and ("address" in response) == certified,
            f"cfmd {what}: {str(response)[:200]}")

    def stop_daemon(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def fresh_daemon(self):
        self.stop_daemon()
        self.daemon = Daemon(self.bins, self.work)

    def edit_session(self, program, seed, count):
        """Full text to a fresh cfmd, then `count` single-literal deltas;
        before one edit in EDITS_PER_VIOLATION comes a violation round trip."""
        if self.daemon.served:
            self.fresh_daemon()
        text = bytearray((self.work / program).read_bytes())
        clean = {"text": text.decode()}
        response, wall, cpu = self.doc_request("full", **clean)
        self.expect_doc(response, True, "full-text check")
        self.samples["daemon_cold_s"].append(cpu)
        self.walls["daemon_cold_s"].append(wall)
        begin = text.index(b"\nbegin\n") + len(b"\nbegin\n")
        literals = [m.start() for m in LITERAL.finditer(text.decode(), begin)]
        rng = random.Random(seed)
        phase = rng.randrange(min(EDITS_PER_VIOLATION, count))
        base = response.get("address")
        last = response.get("output", "")
        for edit in range(count):
            if edit % EDITS_PER_VIOLATION == phase:
                planted, wall_plant, cpu_plant = self.doc_request(
                    "plant", base=base, edits=[{"offset": begin, "remove": 0, "insert": PLANTED}])
                self.expect_doc(planted, False, "planted-violation edit")
                clean = {"text": text.decode()}
                response, wall, cpu = self.doc_request("full", **clean)
                self.expect_doc(response, True, "clean resend")
                self.samples["violation_roundtrip_ms"].append((cpu_plant + cpu) * 1e3)
                self.walls["violation_roundtrip_ms"].append((wall_plant + wall) * 1e3)
                base, last = response.get("address"), response.get("output", "")
            offset = rng.choice(literals)
            digit = str((text[offset] - 48 + 1 + rng.randrange(9)) % 10)
            text[offset] = ord(digit)
            response, wall, cpu = self.doc_request(
                "edit", base=base, edits=[{"offset": offset, "remove": 1, "insert": digit}])
            if not self.expect_doc(response, True, "literal edit"):
                response, *_ = self.doc_request("full", text=text.decode())
            base, last = response.get("address"), response.get("output", "")
            self.samples["edit_p50_ms"].append(cpu * 1e3)
            self.walls["edit_p50_ms"].append(wall * 1e3)
        (self.work / "session.cfm").write_bytes(text)
        oneshot = self.cfmc("check", "session.cfm", "--json", keep_all=True)
        self.ledger.expect(oneshot.head == last, "cfmd output differs from one-shot cfmc check --json")


def tamper(path):
    """Changes one digit in the middle of a certificate (the negative test)."""
    data = bytearray(path.read_bytes())
    at = len(data) // 2
    while not chr(data[at]).isdigit():
        at += 1
    data[at] = ord("1") if data[at] != ord("1") else ord("2")
    path.write_bytes(data)


# --------------------------------------------------------------------------
# End-to-end run (tracing off)


def measure(session, profile, inputs, seconds, smoke):
    """Runs rounds of the session until `seconds` have passed, and at least
    MIN_ROUNDS of them. Every round runs each probe step once; the focus
    step runs in the first round and in every later one it still fits in."""
    focus = profile["focus"]
    edits = 40 if smoke else EDITS_PER_ROUND if focus == "daemon" else PROBE_EDITS

    def program(step, twin=False):
        stmts = profile[step]
        return program_name(stmts, rounds % inputs.variants[stmts], twin)

    steps = {
        "check": lambda: session.check_and_lint(program("check")),
        "daemon": lambda: session.edit_session(
            program("daemon"), inputs.edit_seed + rounds, edits),
        "proof": lambda: session.proof_chain(program("proof"), program("proof", twin=True)),
        "corpus": lambda: ([session.batch(inputs.plan) for _ in range(BATCH_REPEATS)],
                           session.fuzz(profile["fuzz"])),
    }
    start, rounds, focus_cost = time.perf_counter(), 0, 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for name, step in steps.items():
            if name != focus:
                for _ in range(PROBE_REPEATS.get(name, 1)):
                    step()
        elapsed = time.perf_counter() - start
        if rounds == 0 or elapsed + focus_cost <= seconds:
            steps[focus]()
            focus_cost = time.perf_counter() - start - elapsed
        rounds += 1


def percentile(values, pct):
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(count):
    """The highest whole percentile with at least ten samples beyond it."""
    return int(100 * (1 - 10 / count)) if count >= 20 else None


def summarize(samples, walls):
    """Metric values (medians of `samples`: CPU time, but wall clock for the
    batch rate), plus a table that also shows the wall-clock reading of each
    and the value's tail percentile."""
    metrics = {}
    rows = [f"{'metric':<24} {'value':>12} {'unit':<7} {'wall':>12} {'n':>5}  tail"]
    for name, unit in E2E_METRICS:
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        wall = f"{statistics.median(walls[name]):.6g}" if walls[name] else "-"
        pct = tail_percentile(len(values))
        tail = f"p{pct}={percentile(values, pct):.6g}" if pct else "-"
        rows.append(f"{name:<24} {value:>12.6g} {unit:<7} {wall:>12} {len(values):>5}  {tail}")
    return metrics, rows


# --------------------------------------------------------------------------
# Traced run: per-layer metrics

# Layers whose functions the mirrored commands call directly (runtime work
# happens inside RunLint there, so it counts as analysis self time).
LAYERS = ["support", "lang", "lattice", "core", "analysis", "logic", "certcheck", "service",
          "gen"]
LINT_PASSES = ["use-before-init", "dead-assign", "unreachable", "sem-pairing",
               "deadlock-order", "label-creep", "data-race", "atomicity", "suppression"]
ORACLES = ["cert-vs-proof", "builder-vs-checker", "cert-sound-ni", "por-vs-full",
           "round-trip", "pipeline-cache", "lint-stable", "entail-batch",
           "daemon-vs-oneshot", "cert-check", "race-lint-sound"]
MIRRORED = ["gen", "check", "lint", "cert", "verify", "prove", "checkproof", "batch",
            "service"]


class Spans:
    """One cfmtrace span file. Durations and self times are CPU seconds of
    the traced process unless wall=True is asked for."""

    def __init__(self, path):
        data = json.loads(path.read_text())
        self.counts = data["counts"]
        self.spans = [(name, parent, (end - start) / 1e9, (cpu_end - cpu_start) / 1e9)
                      for name, parent, start, end, cpu_start, cpu_end in data["spans"]]

    def durations(self, name, wall=False):
        return [w if wall else c for span, _, w, c in self.spans if span == name]

    def total(self, name, wall=False):
        return sum(self.durations(name, wall))

    def top_level(self, layer):
        """CPU time of the spans of `layer` directly under the root."""
        return sum(cpu for name, parent, _, cpu in self.spans
                   if name.startswith(layer + ".") and parent == 0)

    def layer_self(self):
        """CPU self time per layer, over every span but the command's root."""
        own = [cpu for *_, cpu in self.spans]
        for _, parent, _, cpu in self.spans:
            if parent >= 0:
                own[parent] -= cpu
        layers = {}
        for (name, *_), seconds in zip(self.spans, own):
            layer = name.split(".")[0]
            if layer != "cmd":
                layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def trace_run(session, profile, inputs, smoke):
    """Runs each step UNTRACED_RUNS times untraced (verdicts checked as with
    --trace 0), then the same commands once through cfmtrace, and derives
    per-layer metrics."""
    s, work, ledger = session, session.work, session.ledger
    main, proof_prog = program_name(profile["check"]), program_name(profile["proof"])
    gen_size = max(profile[step] for step in ("check", "daemon", "proof"))
    gen_seed = inputs.seeds[(gen_size, 0)]
    edits = 40 if smoke else EDITS_PER_ROUND if profile["focus"] == "daemon" else PROBE_EDITS
    gen_cpu, lint_cpu, service_cpu, batch_cpu = [], [], [], []
    for run in range(UNTRACED_RUNS):
        gen_cpu.append(s.run([s.bins["cfmc"], "gen", "gen-real.cfm", f"--scale={gen_size}",
                              f"--seed={gen_seed}"]).cpu)
        real_lint = s.check_and_lint(main)
        lint_cpu.append(real_lint.cpu)
        s.requests = []  # Every run sends the same requests; the last run's are kept.
        before = len(s.samples["edit_p50_ms"]), len(s.samples["violation_roundtrip_ms"])
        s.edit_session(program_name(profile["daemon"]), inputs.edit_seed, edits)
        # cfmd's start-up counts too: the traced side builds its CertService.
        service_cpu.append(s.daemon.startup_cpu + s.samples["daemon_cold_s"][-1]
                           + sum(s.samples["edit_p50_ms"][before[0]:]) / 1e3
                           + sum(s.samples["violation_roundtrip_ms"][before[1]:]) / 1e3)
        s.proof_chain(proof_prog, program_name(profile["proof"], twin=True), keep=True)
        batch_cpu.append(s.batch(inputs.plan).cpu)
    requests, s.requests = s.requests, None
    stats = s.daemon.request({"method": "stats"})[0]
    resident_mb = s.daemon.resident_mb()
    untraced = {"gen": gen_cpu, "check": s.samples["check_s"], "lint": lint_cpu,
                "service": service_cpu, "cert": s.samples["cert_emit_s"],
                "verify": s.samples["cert_verify_s"], "prove": s.samples["prove_s"],
                "checkproof": s.samples["checkproof_s"], "batch": batch_cpu}
    untraced = {name: statistics.median(values) for name, values in untraced.items()}
    with open(work / "requests.txt", "w") as out:
        for kind, payload in requests:
            out.write(f"{kind}\t{json.dumps(payload)}\n")

    twins = any(twin for *_, twin in inputs.plan)
    runs = {
        "gen": (["gen", str(gen_size), str(gen_seed),
                 "gen-traced.cfm"], 0),
        "check": (["check", main], 0),
        "lint": (["lint", main], real_lint.code),
        "cert": (["cert", proof_prog, "traced.cfmcert"], 0),
        "verify": (["verify", "chain.cfmcert"], 0),
        "prove": (["prove", proof_prog, "traced.proof"], 0),
        "checkproof": (["checkproof", proof_prog, "chain.proof"], 0),
        "batch": (["batch", "corpus", str(JOBS)], 1 if twins else 0),
        "service": (["service", "requests.txt", program_name(profile["daemon"])], 0),
        "lint-passes": (["lint-passes", main], 0),
        "batch-scaling": (["batch-scaling", "corpus"], 0),
        "explore": (["explore", str(inputs.edit_seed), "3" if smoke else "24"], 0),
    }
    traced, spans = {}, {}
    for name, (argv, expected) in runs.items():
        child = s.run([s.bins["cfmtrace"], *argv, f"--spans={name}.spans.json"])
        ledger.expect(child.code == expected, f"cfmtrace {name}: exit {child.code}")
        traced[name] = child.cpu
        spans[name] = Spans(work / f"{name}.spans.json")
    ledger.expect((work / "gen-real.cfm").read_bytes() == (work / "gen-traced.cfm").read_bytes(),
                  "cfmtrace gen output differs from cfmc gen")
    fuzz_s = {}
    for oracle in ORACLES:
        child = s.run([s.bins["cfmfuzz"], f"--seed={FUZZ_SEED}", f"--cases={profile['fuzz']}",
                       f"--oracles={oracle}", "--no-reduce", "--quiet"])
        ledger.expect(child.code == 0, f"cfmfuzz --oracles={oracle}: exit {child.code}")
        fuzz_s[oracle] = child.cpu
    return per_layer_metrics(spans, traced, untraced, fuzz_s, stats, resident_mb, s.walls)


def per_layer_metrics(spans, traced, untraced, fuzz_s, stats, resident_mb, walls):
    check, lint, passes = spans["check"], spans["lint"], spans["lint-passes"]
    prove, service, scaling = spans["prove"], spans["service"], spans["batch-scaling"]
    stmts = check.counts["lang.stmts"]
    edits = service.durations("service.handle_edit")
    engine = stats["stats"]["contexts"][0]["engine"]
    cache = stats["stats"]["contexts"][0]["cache"]
    edit_requests = len(edits) + len(service.durations("service.handle_plant"))
    explore = spans["explore"]
    states = sum(v for k, v in explore.counts.items() if k.startswith("runtime.explore_states_"))
    explore_s = sum(explore.total(f"runtime.explore_{mode}")
                    for mode in ("por", "full", "conflicts"))
    cert_bytes = spans["verify"].counts["certcheck.bytes"]
    baseline = passes.total("analysis.lint_baseline")
    values = {
        "support.load_s": (check.total("support.load"), "s"),
        "support.content_address_ms": (
            service.total("support.content_address") * 1e3
            / service.counts["support.content_address_repeats"], "ms"),
        "lang.parse_s": (check.total("lang.parse"), "s"),
        "lang.parse_ns_per_stmt": (check.total("lang.parse") * 1e9 / stmts, "ns/stmt"),
        "lang.stmts": (stmts, "count"),
        "lang.source_bytes": (check.counts["lang.source_bytes"], "bytes"),
        "lang.print_s": (spans["gen"].total("lang.print"), "s"),
        "lattice.compile_us": (spans["batch"].total("lattice.compile") * 1e6, "us"),
        "core.bind_s": (check.total("core.bind"), "s"),
        "core.certify_s": (check.total("core.certify"), "s"),
        "core.certify_ns_per_stmt": (check.total("core.certify") * 1e9 / stmts, "ns/stmt"),
        "core.render_s": (check.total("core.render"), "s"),
        "core.render_bytes": (check.counts["core.render_bytes"], "bytes"),
        "core.batch_1w_s": (scaling.total("core.batch_1w", wall=True), "s"),
        "core.batch_4w_s": (scaling.total("core.batch_4w", wall=True), "s"),
        "core.batch_speedup": (scaling.total("core.batch_1w", wall=True)
                               / scaling.total("core.batch_4w", wall=True), "ratio"),
        "runtime.bytecode_s": (passes.total("runtime.bytecode"), "s"),
        "runtime.footprints_s": (passes.total("runtime.footprints"), "s"),
        "runtime.explore_states": (states, "count"),
        "runtime.explore_states_per_s": (states / explore_s, "states/s"),
    }
    for pass_id in LINT_PASSES:
        values[f"analysis.{pass_id}_s"] = (
            passes.total(f"analysis.pass.{pass_id}") - baseline, "s")
    values.update({
        "analysis.findings": (lint.counts["analysis.findings"], "count"),
        "analysis.render_s": (lint.total("analysis.render"), "s"),
        "logic.prove_s": (prove.total("logic.prove"), "s"),
        "logic.proof_nodes": (prove.counts["logic.proof_nodes"], "count"),
        "logic.proof_check_s": (prove.total("logic.proof_check"), "s"),
        "logic.proof_print_s": (prove.total("logic.proof_print"), "s"),
        "logic.proof_print_bytes": (prove.counts["logic.proof_print_bytes"], "bytes"),
        "logic.proof_serialize_s": (prove.total("logic.proof_serialize"), "s"),
        "logic.proof_parse_s": (spans["checkproof"].total("logic.proof_parse"), "s"),
        "logic.cert_write_s": (spans["cert"].total("logic.cert_write"), "s"),
        "logic.cert_bytes": (spans["cert"].counts["logic.cert_bytes"], "bytes"),
        "certcheck.verify_s": (spans["verify"].total("certcheck.verify"), "s"),
        "certcheck.mb_per_s": (cert_bytes / 1e6 / spans["verify"].total("certcheck.verify"),
                               "MB/s"),
        "service.handle_edit_ms": (statistics.median(edits) * 1e3, "ms"),
        "service.transport_ms": (
            statistics.median(walls["edit_p50_ms"])
            - statistics.median(service.durations("service.handle_edit", wall=True)) * 1e3,
            "ms"),
        "service.cold_handle_s": (service.durations("service.handle_full")[0], "s"),
        "service.warm_ratio": (engine["warm_edits"] / edit_requests, "ratio"),
        "service.fallbacks": (engine["fallbacks"], "count"),
        "service.cache_hit_ratio": (cache["hits"] / max(cache["hits"] + cache["misses"], 1),
                                    "ratio"),
        "service.stmts_recertified_per_edit": (cache["stmts_recertified"] / edit_requests,
                                               "stmts"),
        "service.resident_mb": (resident_mb, "MB"),
    })
    for oracle in ORACLES:
        values[f"fuzz.{oracle}_s"] = (fuzz_s[oracle], "s")
    values["gen.program_s"] = (spans["gen"].total("gen.program"), "s")
    layer_self = {layer: 0.0 for layer in LAYERS}
    rows = [f"{'command':<11}{'untraced':>10}{'traced':>10}{'uncovered':>11}  layer self times (s)"]
    overhead = 0.0
    for name in MIRRORED:
        own = spans[name].layer_self()
        for layer, seconds in own.items():
            layer_self[layer] += seconds
        uncovered = traced[name] - sum(own.values())
        # The traced service also loads the recorded requests and the document
        # and times ContentAddress on it: work with no counterpart in cfmd.
        extra = spans[name].top_level("support") if name == "service" else 0.0
        overhead += traced[name] - extra - untraced[name]
        values[f"trace.{name}.uncovered_s"] = (uncovered, "s")
        rows.append(f"{name:<11}{untraced[name]:>10.4f}{traced[name]:>10.4f}{uncovered:>11.4f}  "
                    + " ".join(f"{k}={v:.4f}" for k, v in sorted(own.items())))
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (layer_self[layer], "s")
    values["trace.overhead_s"] = (overhead, "s")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    rows += [f"{name:<36} {value:>14.6g} {unit}" for name, (value, unit) in values.items()]
    return metrics, rows


def cpu_used():
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def scaled(profile, smoke):
    if not smoke:
        return dict(profile)
    return {key: max(value // SMOKE_DIVISOR, 6) if isinstance(value, int) else value
            for key, value in profile.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="smoke divides every input size by %d" % SMOKE_DIVISOR)
    parser.add_argument("--inject", choices=("wrong-verdict", "tamper-cert"),
                        help="break one expectation on purpose (the benchmark's own tests)")
    args = parser.parse_args()
    # A SIGTERM unwinds like an exception, so cfmd is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    os.chdir(ROOT)
    build_dir = ROOT / ".bench_build"
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    smoke = args.profile == "smoke"
    try:
        build(build_dir)
        bins = {tool: str(build_dir / "tools" / tool) for tool in TOOLS if tool != "cfmtrace"}
        bins["cfmtrace"] = str(build_dir / "cfmtrace")
        build_type, compiler = check_release(build_dir, bins)
        profile = scaled(WORKLOADS[args.workload], smoke)
        inputs = Inputs(profile, args.seed)
        ledger = Ledger()
        session = Session(bins, work, ledger, args.inject)
        try:
            for _ in range(SETUP_REPEATS):
                session.stop_daemon()
                start_cpu, start_wall = cpu_used(), time.perf_counter()
                session.daemon = set_up(bins, work, inputs)
                session.samples["setup_s"].append(
                    cpu_used() - start_cpu + session.daemon.startup_cpu)
                session.walls["setup_s"].append(time.perf_counter() - start_wall)
            if args.trace:
                metrics, rows = trace_run(session, profile, inputs, smoke)
            else:
                measure(session, profile, inputs, args.seconds, smoke)
                metrics, rows = summarize(session.samples, session.walls)
        finally:
            session.stop_daemon()
            shutil.rmtree(work, ignore_errors=True)
    except Fatal as error:
        log(f"perfbench: {error}")
        return 2
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "profile": args.profile, "git_commit": git_commit(),
             "source_digest": source_digest(), "compiler": compiler,
             "build_type": build_type, "nproc": os.cpu_count(), "jobs": JOBS}
    print("\n".join(rows))
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
