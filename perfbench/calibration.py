"""Host speed, measured through a run, and times scaled to a reference
host.

The benchmark runs on a shared 2-vCPU virtual machine whose speed moves
for reasons that have nothing to do with the program, with little steal
time showing.  On the host it was written on, a fixed piece of CPU work
took either about 0.6 or about 1.1 ms and flipped between the two every
few seconds, on either vCPU (as a core shared with another tenant
would); a small on-disk commit took 0.5 to 1 ms, drifting over tens of
seconds.  Raw times from runs a few minutes apart differ by that much.

So a :class:`Calibrator` takes a sample every :data:`EVERY` seconds,
between the program's operations while no request is in flight: the
fastest of :data:`BURST` runs of :func:`kernel` (an SQLite correlated
scan, like reference resolution, and Python dict, string and JSON work,
like the protocol and the APPEL front end, on data of its own: the
fastest run has the kernel's data in the CPU caches, so the sample does
not depend on how much of them the program's last operation evicted),
and the time of one small commit to an on-disk WAL database.

:meth:`Calibrator.scaled` turns an operation's time into the time on a
reference host whose kernel takes :data:`NOMINAL_SECONDS` and whose
commit takes :data:`NOMINAL_COMMIT`.  The CPU time the process used
during the operation is scaled by the kernel samples within :data:`NEAR`
seconds of its start, to the power :data:`CPU_SENSITIVITY`; the rest of
its time (disk, sockets, sleeps) by the mean of the commit samples
within :data:`NEAR_DISK` seconds: the mean feels the odd slow fsync of
a disturbed disk, which also hits the checks that pay a log flush and
make up the p99.  Neither probe calls the program's code, so a
change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import bisect
import json
import os
import sqlite3
import statistics

from perfbench.tracer import clock

#: Kernel time on the reference host (the 2-vCPU machine the benchmark
#: was written on, at a quiet moment).
NOMINAL_SECONDS = 0.001
#: Commit time on the reference host.
NOMINAL_COMMIT = 0.0005
#: How far the program's CPU time follows the kernel's, on a log scale.
#: The program's checks, binned by the kernel time around them, moved
#: 0 (warm_browse), 0.2 (new_users) and 0.5 (policy_churn) times as
#: much as the kernel between the host's fast and slow states: a
#: cache-resident kernel feels a busy sibling core more than code that
#: also waits on memory.  With the full ratio, probe latencies measured
#: in the fast state read high (new_users install_p50 spread 0.33 over
#: ten seeds); 0.5 gave the steadiest medians of 2.5-s blocks within a
#: run on all three workloads.
CPU_SENSITIVITY = 0.5
#: Seconds between kernel samples.
EVERY = 0.1
#: Kernel runs per sample.
BURST = 3
#: Kernel samples taken before and after each set-up.
AROUND_SETUP = 10
#: Samples within this many seconds of a moment give its CPU scale
#: (the host's CPU speed flips every few seconds) and its disk scale
#: (commit times scatter more from one to the next, and drift slower).
NEAR = 0.25
NEAR_DISK = 1.0

_QUERY = (
    "SELECT count(*) FROM ref r WHERE EXISTS (SELECT 1 FROM inc i"
    " WHERE i.ref_id = r.id AND ? LIKE replace(i.pattern, '*', '%'))")


def _database() -> sqlite3.Connection:
    db = sqlite3.connect(":memory:", check_same_thread=False)
    db.executescript("""
        CREATE TABLE ref (id INTEGER PRIMARY KEY, site TEXT);
        CREATE TABLE inc (id INTEGER PRIMARY KEY, ref_id INTEGER,
                          pattern TEXT);
        CREATE INDEX inc_ref ON inc (ref_id);
    """)
    db.executemany("INSERT INTO ref (site) VALUES (?)",
                   [(f"www.site{i}.example.com",) for i in range(200)])
    db.executemany("INSERT INTO inc (ref_id, pattern) VALUES (?, ?)",
                   [(i // 3 + 1, f"/s{i % 5}/*") for i in range(600)])
    return db


def kernel(db: sqlite3.Connection) -> None:
    """About 1 ms of work on the reference host, half SQLite, half
    Python."""
    db.execute(_QUERY, ("/s3/item-7",)).fetchone()
    doc = {f"rule-{i}": {"behavior": "request", "index": i,
                         "tags": [str(i), "x" * (i % 7)]}
           for i in range(100)}
    back = json.loads(json.dumps(doc, sort_keys=True))
    "".join(sorted(f"{key}={value['index']}"
                   for key, value in back.items()))


class Calibrator:
    """Kernel and commit samples taken through a run."""

    def __init__(self, work_dir: str, every: float = EVERY):
        self.every = every
        #: ``(start, seconds)`` per sample: the fastest kernel run of
        #: the burst, and the commit after it.
        self.samples: list[tuple[float, float]] = []
        self.commits: list[tuple[float, float]] = []
        self._starts: list[float] = []
        self._db = _database()
        self._disk = sqlite3.connect(os.path.join(work_dir, "commit.db"),
                                     isolation_level=None,
                                     check_same_thread=False)
        self._disk.execute("PRAGMA journal_mode=WAL")
        self._disk.execute("CREATE TABLE IF NOT EXISTS t (x INTEGER)")
        self._next = 0.0
        kernel(self._db)             # warm: first-call costs are not speed

    def sample(self, count: int = 1) -> float:
        """Take *count* samples now; the seconds they took."""
        start = clock()
        for _ in range(count):
            times = []
            for _ in range(BURST):
                begin = clock()
                kernel(self._db)
                times.append(clock() - begin)
            self.samples.append((begin, min(times)))
            self._starts.append(begin)
            begin = clock()
            self._disk.execute("INSERT INTO t VALUES (1)")
            self.commits.append((begin, clock() - begin))
        end = clock()
        self._next = end + self.every
        return end - start

    def maybe(self) -> float:
        """Sample if one is due; the seconds taken (0 if none)."""
        return self.sample() if clock() >= self._next else 0.0

    def scale(self, since: float, until: float) -> float:
        """NOMINAL_SECONDS over the median kernel time of the samples
        taken between *since* and *until* (1.0 if none): the detail
        report's CPU scale of a phase."""
        times = [seconds for at, seconds in self.samples
                 if since <= at < until]
        return NOMINAL_SECONDS / statistics.median(times) if times else 1.0

    def _near(self, at: float, near: float) -> slice:
        """The samples within *near* seconds of *at*, or the three
        nearest when there are fewer."""
        starts = self._starts
        low = bisect.bisect_left(starts, at - near)
        high = bisect.bisect_right(starts, at + near)
        if high - low < 3:
            middle = bisect.bisect_left(starts, at)
            low, high = max(0, middle - 2), min(len(starts), middle + 2)
            if high - low > 3:
                # Drop whichever end lies further from *at*.
                if at - starts[low] > starts[high - 1] - at:
                    low += 1
                else:
                    high -= 1
        return slice(low, high)

    def scale_at(self, at: float) -> tuple[float, float]:
        """The CPU and the disk scale at time *at*."""
        if not self.samples:
            return 1.0, 1.0
        return ((NOMINAL_SECONDS / statistics.median(
                    seconds for _, seconds in self.samples[
                        self._near(at, NEAR)])) ** CPU_SENSITIVITY,
                NOMINAL_COMMIT / statistics.fmean(
                    seconds for _, seconds in self.commits[
                        self._near(at, NEAR_DISK)]))

    def scaled(self, at: float, seconds: float, cpu: float) -> float:
        """*seconds* that started at *at*, of which the process ran on a
        CPU for *cpu*, as on the reference host: the CPU part scaled by
        the kernel, the rest (disk, sockets, sleeps) by the commit."""
        cpu = min(cpu, seconds)
        cpu_scale, disk_scale = self.scale_at(at)
        return cpu * cpu_scale + (seconds - cpu) * disk_scale

    def commit_ms(self, since: float, until: float) -> float | None:
        """Median commit time between *since* and *until*."""
        times = [seconds for at, seconds in self.commits
                 if since <= at < until]
        return statistics.median(times) * 1000 if times else None

    def close(self) -> None:
        self._db.close()
        self._disk.close()
