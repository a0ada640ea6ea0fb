#!/usr/bin/env python3
"""End-to-end benchmark of the distributed heat grid.

Each job is the heat grid of gridapp::heat_mojc_source, run across two
`mojc node` agent processes by a `mojc cluster` coordinator, all spawned
by this process. Jobs run one at a time in a closed loop for --seconds;
every rank's RANK_SUM must match gridapp::heat_reference_sums bit for bit.

    python3 perfbench/run.py --workload grid-compute --seed 1 \
        --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
run (in-process coordinator, agents with --stats=json --trace-out, layer
probes) and prints the per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. `attempted` and
`failed` count ranks, so failed/attempted is rank_fail_share; a failed job
is never timed. A sum that is not bit-exact makes "correct" false and the
exit code 1, as does a run in which no job finished (no result line then).
See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "jobs")
MOJC = os.path.join(BUILD, "mojave", "core", "mojc")
TOOL = os.path.join(BUILD, "perfbench_tool")

AGENTS = 2
JOB_DEADLINE_S = 60.0   # a job still running after this has failed
LEASE_TTL_S = 1.0       # grid-recover's lease: a standby takes over sooner

# Heat-grid shapes. `interval` is checkpoint_interval in steps (0 = none),
# `static` is HeatConfig::static_slots (8 bytes each).
WORKLOADS = {
    "grid-compute": dict(ranks=8, rows=128, cols=256, steps=100,
                         interval=100, static=0, wal=False, kills=False),
    "grid-checkpoint": dict(ranks=16, rows=32, cols=64, steps=8,
                            interval=4, static=131072, wal=True, kills=False),
    "grid-dense": dict(ranks=400, rows=400, cols=16, steps=40,
                       interval=0, static=0, wal=False, kills=False),
    "grid-recover": dict(ranks=8, rows=128, cols=128, steps=400,
                         interval=50, static=0, wal=True, kills=True),
}

END_TO_END = {  # name -> unit
    "job_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    """Configure and build mojc + perfbench_tool from this checkout."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(os.path.dirname(BUILD), "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs,
         "--target", "mojc", "perfbench_tool"],
    ]
    with open(build_log, "a") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                raise SystemExit("perfbench: build failed (%s); see %s"
                                 % (" ".join(cmd[:2]), build_log))


# ------------------------------------------------------ process hygiene --

_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent():
    # Runs in the child between fork and exec: SIGKILL it if this process
    # dies, so no agent outlives a killed benchmark.
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)


class Child:
    """One spawned process. Its stdout is read line by line with arrival
    times; stderr goes to a file. reap() collects rusage via wait4."""

    def __init__(self, name, argv, err_path):
        self.name = name
        self.err_path = err_path
        with open(err_path, "wb") as err:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err,
                stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent,
                cwd=ROOT)
        os.set_blocking(self.proc.stdout.fileno(), False)
        self.buf = b""
        self.lines = []   # (monotonic arrival time, text)
        self.eof = False
        self.rusage = None

    def feed(self, now):
        try:
            data = os.read(self.proc.stdout.fileno(), 65536)
        except BlockingIOError:
            return
        if not data:
            self.eof = True
            return
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        for raw in done:
            self.lines.append((now, raw.decode("utf-8", "replace")))

    def running(self):
        # wait4 rather than Popen.poll, which would reap without rusage.
        if self.rusage is None:
            self._reaped(*os.wait4(self.proc.pid, os.WNOHANG))
        return self.rusage is None

    def kill(self):
        if self.rusage is None:
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def reap(self):
        """Wait for the process (which must be exiting) and keep rusage."""
        if self.rusage is None:
            self._reaped(*os.wait4(self.proc.pid, 0))

    def _reaped(self, pid, status, ru):
        if pid == 0:
            return
        self.rusage = ru
        self.proc.returncode = os.waitstatus_to_exitcode(status)

    def cpu_s(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    def stderr_text(self):
        with open(self.err_path, "rb") as f:
            return f.read().decode("utf-8", "replace")


LIVE = []   # every Child not yet reaped, for the signal handler


def kill_all():
    for c in list(LIVE):
        c.kill()
    for c in list(LIVE):
        try:
            c.reap()
        except ChildProcessError:
            pass
        LIVE.remove(c)


def _on_signal(signum, _frame):
    kill_all()
    sys.exit(128 + signum)


# ---------------------------------------------------------------- helpers --

def established_ports():
    """Local ports of ESTABLISHED IPv4 TCP sockets (/proc/net/tcp)."""
    ports = set()
    with open("/proc/net/tcp") as f:
        next(f)
        for line in f:
            fields = line.split()
            if fields[3] == "01":
                ports.add(int(fields[1].split(":")[1], 16))
    return ports


def manifest_seqs(store):
    """rank -> highest checkpoint seq among rank_<r>@<seq>.mft manifests."""
    best = {}
    try:
        names = os.listdir(os.path.join(store, "manifests"))
    except FileNotFoundError:
        return best
    for n in names:
        if not n.startswith("rank_") or not n.endswith(".mft") \
                or "_sendlog" in n or "@" not in n:
            continue
        rank_s, seq_s = n[5:-4].split("@")
        rank, seq = int(rank_s), int(seq_s)
        best[rank] = max(best.get(rank, 0), seq)
    return best


def stats_json(text):
    """The `--stats=json` registry dump at the end of a mojc stderr."""
    at = text.rfind('{"counters"')
    if at < 0:
        return None
    return json.loads(text[at:].splitlines()[0])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean_job_s(jobs):
    """Mean job time: grid-checkpoint's jobs fall into two modes (agents
    overlapping their checkpoint puts or taking turns) whose share drifts
    between runs, and the median jumps between the modes where the mean
    moves with the share."""
    return statistics.mean(j["job_s"] for j in jobs) if jobs else 0.0


def host_record():
    def first(path, key):
        try:
            with open(path) as f:
                for line in f:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def fs_type(path):
        path = os.path.realpath(path)
        best, kind = "", "unknown"
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                mnt = parts[1]
                if (path == mnt or path.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
        return kind

    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                for key in ("CMAKE_CXX_COMPILER:", "CMAKE_BUILD_TYPE:"):
                    if line.startswith(key):
                        cache[key[:-1]] = line.split("=", 1)[1].strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "unknown")
    try:
        compiler += " " + subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
        "store_fs": fs_type(WORK),
    }


# -------------------------------------------------------------------- job --

class Job:
    """One heat-grid job across AGENTS fresh agents and a fresh store."""

    def __init__(self, wl, prog_dir, job_dir, rng, traced):
        self.wl = wl
        self.prog = os.path.join(prog_dir, "heat.mjc")
        with open(os.path.join(prog_dir, "reference.txt")) as f:
            self.reference = [line.strip() for line in f]
        self.dir = job_dir
        self.store = os.path.join(job_dir, "store")
        self.wal = os.path.join(job_dir, "wal")
        self.rng = rng
        self.traced = traced
        self.agents = []
        self.coords = []
        self.events = {}
        self.victim_ranks = []
        self.out = {}

    def spawn(self, name, argv):
        child = Child(name, argv, os.path.join(self.dir, name + ".err"))
        LIVE.append(child)
        return child

    def coordinator(self, name, ports, standby=False):
        nodes = ",".join("127.0.0.1:%d" % p for p in ports)
        extra = []
        if self.wl["wal"]:
            extra = ["--wal-root", self.wal]
        if self.wl["kills"]:
            extra += ["--lease-ttl", str(LEASE_TTL_S)]
        if standby:
            extra.append("--standby")
        if self.traced:
            argv = [TOOL, "coord", "--nodes", nodes, "--ranks",
                    str(self.wl["ranks"]), "--program", self.prog,
                    "--timeout", str(JOB_DEADLINE_S)] + extra
        else:
            # Line-buffered stdout: RANK_SUM lines reach us when printed.
            argv = ["stdbuf", "-oL", MOJC, "cluster", "--nodes", nodes,
                    "--ranks", str(self.wl["ranks"]),
                    "--timeout", str(JOB_DEADLINE_S)] + extra + \
                ["run", self.prog]
        return self.spawn(name, argv)

    def pump(self, sel, timeout):
        for key, _ in sel.select(timeout):
            key.data.feed(time.monotonic())
            if key.data.eof:
                sel.unregister(key.fileobj)

    def run(self):
        os.makedirs(self.store)
        sel = selectors.DefaultSelector()
        t_spawn = time.monotonic()
        deadline = t_spawn + JOB_DEADLINE_S
        for i in range(AGENTS):
            argv = [MOJC, "node", "--storage", self.store, "--port", "0"]
            if self.traced:
                argv += ["--stats=json",
                         "--trace-out=" + os.path.join(self.dir,
                                                       "a%d.trace.json" % i)]
            a = self.spawn("agent%d" % i, argv)
            sel.register(a.proc.stdout, selectors.EVENT_READ, a)
            self.agents.append(a)

        ports = [None] * AGENTS
        while None in ports and time.monotonic() < deadline:
            self.pump(sel, 0.05)
            for i, a in enumerate(self.agents):
                for _, line in a.lines:
                    if line.startswith("DNODE_READY port="):
                        ports[i] = int(line.split("=", 1)[1])
            if any(not a.running() and a.eof for a in self.agents):
                break
        if None in ports:
            return self.finish(sel, "agents never became ready")

        coord = self.coordinator("coord", ports)
        sel.register(coord.proc.stdout, selectors.EVENT_READ, coord)
        self.coords.append(coord)

        # Set-up ends when the coordinator is connected to every agent
        # (mojc cluster compiles the program before it connects). The
        # traced coordinator says so itself.
        t_ready = None
        while t_ready is None and time.monotonic() < deadline:
            if self.traced:
                self.pump(sel, 0.05)
                for t, line in coord.lines:
                    if line == "COORD_READY":
                        t_ready = t
            else:
                if set(ports) <= established_ports():
                    t_ready = time.monotonic()
                else:
                    time.sleep(0.0005)
            if t_ready is None and not coord.running():
                break
        if t_ready is None:
            return self.finish(sel, "coordinator never connected")
        self.events["spawn"] = t_spawn
        self.events["ready"] = t_ready

        kill_wave = coord_wave = None
        victim = None
        if self.wl["kills"]:
            waves = self.wl["steps"] // self.wl["interval"]
            kill_wave = self.rng.randint(1, waves // 2)
            coord_wave = kill_wave + self.rng.randint(2, 3)
            victim = self.rng.randrange(AGENTS)
            self.out["kill_wave"] = kill_wave
            self.out["coord_wave"] = coord_wave
            # Placement is round-robin over agents.
            self.victim_ranks = [r for r in range(self.wl["ranks"])
                                 if r % AGENTS == victim]
        seq_at_kill = None

        while time.monotonic() < deadline:
            self.pump(sel, 0.002 if self.wl["kills"] else 0.05)
            live = self.coords[-1]
            if self.wl["kills"]:
                seqs = manifest_seqs(self.store)
                wave = max(seqs.values(), default=0)
                now = time.monotonic()
                if "agent_kill" not in self.events and wave >= kill_wave:
                    self.agents[victim].kill()
                    self.events["agent_kill"] = now
                    seq_at_kill = {r: seqs.get(r, 0)
                                   for r in self.victim_ranks}
                if "agent_kill" in self.events and "resumed" not in self.events \
                        and all(seqs.get(r, 0) > seq_at_kill[r]
                                for r in self.victim_ranks):
                    self.events["resumed"] = now
                if "agent_kill" in self.events and \
                        "coord_kill" not in self.events and \
                        wave >= coord_wave and live.running():
                    live.kill()
                    live.reap()
                    LIVE.remove(live)
                    self.events["coord_kill"] = now
                    standby = self.coordinator("standby", ports, standby=True)
                    sel.register(standby.proc.stdout, selectors.EVENT_READ,
                                 standby)
                    self.coords.append(standby)
                    continue
            if not live.running() and live.eof:
                break
        return self.finish(sel, None)

    def finish(self, sel, error):
        """Collect results, then kill and reap every child."""
        final = self.coords[-1] if self.coords else None
        timed_out = final is not None and final.running()
        sums = {}
        t_last = None
        if final is not None:
            for t, line in final.lines:
                if line.startswith("RANK_SUM "):
                    kv = dict(p.split("=", 1) for p in line.split()[1:])
                    sums[int(kv["rank"])] = kv["sum"]
                    t_last = t
                if line.startswith("COORD_REPORT "):
                    self.out["coord_report"] = json.loads(line[13:])
            if len(self.coords) > 1:
                for t, line in final.lines:
                    if line == "COORD_READY":
                        self.out["takeover_s"] = t - self.events["coord_kill"]
        # Agents exit on SHUTDOWN; give them a moment, then make sure.
        grace = time.monotonic() + 5.0
        while any(a.running() for a in self.agents) and \
                time.monotonic() < grace and not timed_out and error is None:
            time.sleep(0.005)
        for c in self.agents + self.coords:
            c.kill()
            c.reap()
            if c in LIVE:
                LIVE.remove(c)
        sel.close()

        ranks = self.wl["ranks"]
        bad = [r for r in range(ranks) if sums.get(r) != self.reference[r]]
        wrong = [r for r in bad if r in sums]
        if error is None and timed_out:
            error = "past the %.0f s deadline" % JOB_DEADLINE_S
        if error is None and bad:
            error = "%d rank(s) missing or wrong" % len(bad)
        self.out.update({
            "error": error,
            "failed_ranks": ranks if error and timed_out else len(bad),
            "wrong_ranks": len(wrong),
        })
        if error is None:
            self.out["job_s"] = t_last - self.events["ready"]
            self.out["setup_s"] = self.events["ready"] - self.events["spawn"]
            self.out["cpu_s"] = sum(c.cpu_s() for c in self.agents +
                                    self.coords)
            self.out["agent_cpu_s"] = sum(a.cpu_s() for a in self.agents)
            self.out["peak_rss_mb"] = max(a.rusage.ru_maxrss
                                          for a in self.agents) / 1024.0
            if "resumed" in self.events:
                self.out["resume_s"] = (self.events["resumed"] -
                                        self.events["agent_kill"])
            elif self.wl["kills"]:
                self.out["failed_ranks"] = len(self.victim_ranks)
                self.out["error"] = "killed agent's ranks never checkpointed"
            if self.traced:
                self.out["agent_stats"] = [stats_json(a.stderr_text())
                                           for a in self.agents]
                self.out["agent_traces"] = [
                    os.path.join(self.dir, "a%d.trace.json" % i)
                    for i in range(AGENTS)]
        else:
            self.out["stderr_tail"] = {
                c.name: c.stderr_text()[-400:] for c in self.agents +
                self.coords}
        return self.out


# ------------------------------------------------------------ trace maths --

def span_seconds(paths):
    """Summed span seconds per "cat.name" over Chrome trace files: total
    duration, and self time (duration minus what direct child spans on the
    same thread cover)."""
    total, self_s = {}, {}
    for p in paths:
        try:
            with open(p) as f:
                events = json.load(f).get("traceEvents", [])
        except (OSError, ValueError):
            continue
        spans = sorted((e for e in events if e.get("ph") == "X"),
                       key=lambda e: (e.get("pid"), e.get("tid"), e["ts"],
                                      -e.get("dur", 0)))
        stack = []  # open spans on the current thread: [thread, end, key]
        for e in spans:
            thread = (e.get("pid"), e.get("tid"))
            start, dur = e["ts"], e.get("dur", 0)
            while stack and (stack[-1][0] != thread or stack[-1][1] <= start):
                stack.pop()
            key = e.get("cat", "") + "." + e.get("name", "")
            total[key] = total.get(key, 0.0) + dur / 1e6
            self_s[key] = self_s.get(key, 0.0) + dur / 1e6
            if stack:
                parent = stack[-1][2]
                self_s[parent] = self_s[parent] - dur / 1e6
            stack.append([thread, start + dur, key])
    return total, self_s


def layer_metrics(job, probes, gen):
    """Per-layer figures of one traced job."""
    stats = [s for s in job["agent_stats"] if s]
    c = {}
    h = {}
    for s in stats:
        for k, v in s["counters"].items():
            c[k] = c.get(k, 0) + v
        for k, v in s["histograms"].items():
            prev = h.setdefault(k, {"count": 0, "sum_us": 0.0, "p50": [],
                                    "p99": []})
            prev["count"] += v["count"]
            prev["sum_us"] += v["sum_us"]
            if v["count"]:
                prev["p50"].append(v["p50_us"])
                prev["p99"].append(v["p99_us"])
    spans, self_s = span_seconds(job["agent_traces"])
    report = job.get("coord_report", {})
    creg = report.get("registry", {}).get("counters", {})

    def hs(name):
        return h.get(name, {}).get("sum_us", 0.0) / 1e6

    def hq(name, q):
        vals = h.get(name, {}).get(q, [])
        return max(vals) if vals else 0.0

    job_s = job["job_s"]
    agent_cpu = job["agent_cpu_s"]
    loop_s = AGENTS * job_s
    logical = c.get("ckpt.bytes_logical", 0)
    batches = c.get("net.coalesce.flush_batches", 0)
    m = {
        "frontend.compile_s": gen["heat_program_s"],
        "vm.instructions": c.get("vm.instructions", 0),
        "vm.probe_ns_per_insn": probes["vm.probe_ns_per_insn"],
        "native.probe_ns_per_insn": probes["native.probe_ns_per_insn"],
        "native.compiled_funcs": c.get("native.compiled_funcs", 0),
        "native.compile_s": hs("native.compile_us"),
        "native.deopts_cold": c.get("native.deopts.cold_target", 0),
        "gc.pause_s": hs("gc.pause_us"),
        "gc.pause_p99_us": hq("gc.pause_us", "p99"),
        "gc.major_collections": c.get("gc.major_collections", 0),
        "spec.commits": c.get("spec.commits", 0),
        "spec.rollbacks": c.get("spec.rollbacks", 0),
        "spec.bytes_preserved": c.get("spec.bytes_preserved", 0),
        "migrate.images_packed": c.get("migrate.images_packed", 0),
        "migrate.image_bytes": c.get("migrate.image_bytes_packed", 0),
        "migrate.pack_s": hs("migrate.pack_us"),
        "migrate.unpack_s": spans.get("migrate.unpack", 0.0),
        "migrate.recompile_s": spans.get("migrate.recompile", 0.0),
        "migrate.probe_pack_us": probes["migrate.probe_pack_us"],
        "migrate.probe_unpack_us": probes["migrate.probe_unpack_us"],
        "migrate.probe_recompile_us": probes["migrate.probe_recompile_us"],
        "ckpt.puts": h.get("ckpt.put_us", {}).get("count", 0),
        "ckpt.put_s": hs("ckpt.put_us"),
        "ckpt.put_p50_us": hq("ckpt.put_us", "p50"),
        "ckpt.put_p99_us": hq("ckpt.put_us", "p99"),
        "ckpt.write_ratio": (c.get("ckpt.bytes_written", 0) / logical
                             if logical else 0.0),
        "ckpt.probe_put_us": probes["ckpt.probe_put_us"],
        "ckpt.probe_restore_us": probes["ckpt.probe_restore_us"],
        "ckpt.restores": c.get("ckpt.restores", 0),
        "ckpt.restore_s": hs("ckpt.restore_us"),
        "net.frames_out": c.get("net.coalesce.frames_out", 0),
        "net.frames_per_batch": (c.get("net.coalesce.frames_out", 0) / batches
                                 if batches else 0.0),
        "net.bytes_out": c.get("net.coalesce.bytes_out", 0),
        "net.probe_frame_us": probes["net.probe_frame_us"],
        "dspec.replay_requests": c.get("dspec.replay_requests", 0),
        "sched.slices": c.get("sched.slices", 0),
        "sched.blocks": c.get("sched.blocks", 0),
        "sched.deadline_wakes": c.get("sched.deadline_wakes", 0),
        "dnode.idle_share": 1.0 - agent_cpu / loop_s,
        "dnode.dep_records": c.get("dspec.dep_records", 0),
        "dnode.resurrections": c.get("node.resurrections", 0),
        "dnode.launch_s": report.get("launch_s", 0.0),
        "dnode.wait_s": report.get("wait_s", 0.0),
        "dnode.ctor_s": report.get("ctor_s", 0.0),
        "dnode.shutdown_s": report.get("shutdown_s", 0.0),
        "ctrl.wal.appends": creg.get("ctrl.wal.appends", 0),
        "ctrl.wal.fsyncs": creg.get("ctrl.wal.fsyncs", 0),
        "ctrl.wal.bytes": creg.get("ctrl.wal.bytes", 0),
        "ctrl.probe_append_us": probes["ctrl.probe_append_us"],
        "ctrl.probe_sync_us": probes["ctrl.probe_sync_us"],
        "ctrl.takeover_s": job.get("takeover_s", 0.0),
        "ctrl.readopted_ranks": creg.get("ctrl.readopted_ranks", 0),
        "resume_s": job.get("resume_s", 0.0),
    }
    # Where the agents' loop-thread seconds (AGENTS x job_s) went. Execution
    # is the instruction count at the probe's rate; spans give the self
    # time of GC (pack's own major GC included), pack, put, restore and
    # unpack, so no interval counts twice; idle is wall minus agent CPU.
    exec_ns = probes["native.probe_ns_per_insn" if gen["native_tier"]
                     else "vm.probe_ns_per_insn"]

    def own(*keys):
        return sum(self_s.get(k, 0.0) for k in keys)

    layers = {
        "layer.exec_s": m["vm.instructions"] * exec_ns / 1e9,
        "layer.native_compile_s": m["native.compile_s"],
        "layer.gc_s": own("gc.minor", "gc.major"),
        "layer.migrate_pack_s": own("migrate.pack"),
        "layer.ckpt_put_s": own("ckpt.put"),
        "layer.ckpt_restore_s": own("ckpt.restore"),
        "layer.migrate_unpack_s": own("migrate.unpack", "migrate.typecheck",
                                      "migrate.recompile"),
        "layer.idle_s": max(0.0, loop_s - agent_cpu),
    }
    m.update(layers)
    m["unattributed_s"] = loop_s - sum(layers.values())
    return m


# ------------------------------------------------------------------- main --

def workload_args(wl):
    return [str(wl[k]) for k in ("ranks", "rows", "cols", "steps",
                                 "interval", "static")]


def tool_json(cmd, prog_dir, wl):
    return json.loads(subprocess.run(
        [TOOL, cmd, prog_dir] + workload_args(wl), check=True,
        capture_output=True, text=True).stdout)


def run_jobs(wl, prog_dir, rng, until, min_jobs, traced=False, layers=None):
    """Closed loop: one job at a time until `until` (and >= min_jobs).
    For traced jobs `layers(job)` turns the job into per-layer figures
    before its directory is removed."""
    jobs = []
    while len(jobs) < min_jobs or time.monotonic() < until:
        job_dir = os.path.join(WORK, "%d-%d" % (os.getpid(), len(jobs)))
        shutil.rmtree(job_dir, ignore_errors=True)
        os.makedirs(job_dir)
        try:
            out = Job(wl, prog_dir, job_dir, rng, traced).run()
            if traced and out["error"] is None:
                out["layers"] = layers(out)
        finally:
            kill_all()
            shutil.rmtree(job_dir, ignore_errors=True)
        if out["error"]:
            log("job %d failed: %s" % (len(jobs), out["error"]))
            for name, tail in out.get("stderr_tail", {}).items():
                log("  %s: %s" % (name, tail.strip().replace("\n", " | ")))
        jobs.append(out)
    return jobs


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_insn", "ns"),
                         ("_share", "ratio"), ("_ratio", "ratio"),
                         ("_batch", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(wl, jobs, trace):
    """The result line and the report of one run. Failed jobs count all
    their ranks as failed and contribute no time."""
    attempted = len(jobs) * wl["ranks"]
    failed = sum(j["failed_ranks"] for j in jobs)
    wrong = sum(j["wrong_ranks"] for j in jobs)
    ok = [j for j in jobs if j["error"] is None]
    report = {
        "jobs": len(jobs), "jobs_ok": len(ok),
        "job_s_each": [round(j["job_s"], 6) for j in ok],
        "job_s_median": median([j["job_s"] for j in ok]),
        "rank_fail_share": failed / attempted if attempted else 1.0,
        "kill_waves": [[j["kill_wave"], j["coord_wave"]] for j in jobs
                       if "kill_wave" in j],
    }
    metrics = {}
    if trace:
        plain = [j for j in ok if "layers" not in j]
        traced = [j for j in ok if "layers" in j]
        layers = {}
        if traced:
            for name in traced[0]["layers"]:
                layers[name] = median([j["layers"][name] for j in traced])
            layers["job_s_traced"] = mean_job_s(traced)
            layers["rank_fail_share"] = report["rank_fail_share"]
            if plain:
                # No overhead without an untraced baseline in this run.
                layers["trace.overhead_s"] = (
                    layers["job_s_traced"] -
                    mean_job_s(plain))
                metrics = layers
            report["layer_table"] = {
                k: v for k, v in layers.items()
                if k.startswith("layer.") or k in (
                    "unattributed_s", "job_s_traced", "trace.overhead_s")}
    elif ok:
        for name in END_TO_END:
            metrics[name] = median([j[name] for j in ok])
        metrics["job_s"] = mean_job_s(ok)
        resumes = [j["resume_s"] for j in ok if "resume_s" in j]
        if resumes:
            report["resume_s"] = median(resumes)
    result = {
        "correct": wrong == 0 and bool(metrics),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    return result, report


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    build()
    wl = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    os.makedirs(WORK, exist_ok=True)
    prog_dir = os.path.join(WORK, "%d-prog" % os.getpid())
    try:
        gen = tool_json("gen", prog_dir, wl)
        t0 = time.monotonic()
        if args.trace:
            # Untraced jobs for the first half (the tracing-overhead
            # baseline), traced jobs for the second.
            probes = tool_json("probes", prog_dir, wl)
            jobs = run_jobs(wl, prog_dir, rng, t0 + args.seconds / 2, 1)
            jobs += run_jobs(
                wl, prog_dir, rng, t0 + args.seconds, 1, traced=True,
                layers=lambda j: layer_metrics(j, probes, gen))
        else:
            jobs = run_jobs(wl, prog_dir, rng, t0 + args.seconds, 3)
    finally:
        kill_all()
        shutil.rmtree(prog_dir, ignore_errors=True)

    result, report = summarize(wl, jobs, args.trace)
    report.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace,
                   "host": dict(host_record(),
                                native_tier=bool(gen["native_tier"]))})
    log(json.dumps(report))
    if result["metrics"]:
        print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
