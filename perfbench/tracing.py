"""Per-module spans and counters, recorded from outside brickrank.

``install()`` replaces public functions of the package's modules with
timing wrappers.  A function imported by name into another module is
replaced there too (``brickrank.archetypes.ext_dir``,
``brickrank.witness.minimal_set``, ``brickrank.engine.gcd_nat``, ...),
so every call path goes through the wrapper.  Spans stay in memory and
are written out once, when the round ends.

Each wrapped call pushes a frame; on return its duration is added to
the parent frame, so a function's self time is its duration minus its
children's.  Inclusive time counts only the outermost call of a name,
so a function that reaches itself again is not counted twice.  The
lattice operations run hundreds of thousands of times per round, so
they are aggregated only and leave no span each.

Per-element helpers (``cix``, ``comb``, ``brick_divides``,
``lattice_of``, sort keys, the Brick and Phrase constructors) are not
wrapped: no layer metric names them, and a wrapper would cost more than
the call.  Their time shows as self time of the wrapped caller.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from time import perf_counter

# ext_dir inputs of at least this many bricks count as "large"; the same
# size at which the engine of the measured version switches backends.
LARGE_EXT_DIR = 24

# (module, function, keep a span per call)
WRAPPED = (
    ("cli", "main", True),
    ("engine", "parse_brick", True),
    ("engine", "minimal_set", True),
    ("engine", "ext_all", True),
    ("engine", "ext_dir", True),
    ("engine", "minimal_elements", True),
    ("engine", "is_tilable", True),
    ("numlat", "parse_nat", False),
    ("numlat", "gcd_nat", False),
    ("numlat", "lcm_nat", False),
    ("numlat", "divides_nat", False),
    ("dedekind", "parse_phrase", False),
    ("dedekind", "meet", False),
    ("dedekind", "join", False),
    ("dedekind", "leq", False),
    ("dedekind", "reduce_words", False),
    ("dedekind", "phrase_tt", False),
    ("dedekind", "phrase_from_tt", False),
    ("dedekind", "enumerate_lattice", True),
    ("maxrank", "geometric_maxrank", True),
    ("archetypes", "certificate", True),
    ("archetypes", "next_minimal_level", True),
    ("archetypes", "rank_polynomial", True),
    ("witness", "tile_witness", True),
    ("witness", "parallel_pack", True),
    ("witness", "combine_witness", True),
    ("witness", "verify_witness", True),
    ("witness", "witness_to_json", True),
)

# metric -> the wrapped names it sums
GROUPS = {
    "numlat.ops": ("numlat.gcd_nat", "numlat.lcm_nat", "numlat.divides_nat"),
    "dedekind.ops": ("dedekind.meet", "dedekind.join", "dedekind.leq"),
    "dedekind.codec": ("dedekind.phrase_tt", "dedekind.phrase_from_tt"),
}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [child seconds, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.stats: dict[str, list] = {}  # name -> [calls, incl s, self s]
        self.depth: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def high(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def call(self, name: str, keep: bool, fn, args, kwargs):
        stack, depth = self.stack, self.depth
        parent = stack[-1][1] if stack else None
        frame = [0.0, len(self.spans) if keep else parent]
        if keep:
            self.spans.append(None)  # reserve the id; filled on return
        stack.append(frame)
        depth[name] = depth.get(name, 0) + 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            depth[name] -= 1
            dur = t1 - t0
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            if not depth[name]:
                st[1] += dur
            st[2] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if keep:
                self.spans[frame[1]] = (frame[1], name, t0, t1, parent)

    # -- wrappers -----------------------------------------------------------

    def wrap(self, module: str, fname: str, fn, keep: bool):
        name = f"{module}.{fname}"
        special = getattr(self, f"_wrap_{module}_{fname}", None)
        if special is not None:
            return special(name, fn, keep)

        def wrapper(*args, **kwargs):
            return self.call(name, keep, fn, args, kwargs)

        return wrapper

    def _wrap_engine_ext_dir(self, name, fn, keep):
        def wrapper(delta, bricks, *args, **kwargs):
            bricks = list(bricks)
            size = "large" if len(bricks) >= LARGE_EXT_DIR else "small"
            out = self.call(f"{name}.{size}", keep, fn,
                            (delta, bricks) + args, kwargs)
            self.count("engine.ext_dir.bricks_in", len(bricks))
            self.count("engine.ext_dir.bricks_out", len(out))
            return out

        return wrapper

    def _wrap_engine_minimal_elements(self, name, fn, keep):
        def wrapper(bricks, *args, **kwargs):
            bricks = list(bricks)
            out = self.call(name, keep, fn, (bricks,) + args, kwargs)
            self.count("engine.minimal_elements.in", len(bricks))
            self.count("engine.minimal_elements.out", len(out))
            return out

        return wrapper

    def _wrap_witness_tile_witness(self, name, fn, keep):
        def wrapper(*args, **kwargs):
            w = self.call(name, keep, fn, args, kwargs)
            if w is not None:
                self.count("witness_placements", len(w.placements))
                self.high("witness.max_abs_coeff",
                          max((abs(p.coeff) for p in w.placements), default=0))
            return w

        return wrapper

    def _wrap_witness_witness_to_json(self, name, fn, keep):
        def wrapper(*args, **kwargs):
            text = self.call(name, keep, fn, args, kwargs)
            self.count("witness.json_bytes", len(text.encode()))
            return text

        return wrapper

    # -- results ------------------------------------------------------------

    def _stat(self, *names) -> tuple[int, float, float]:
        rows = [self.stats.get(n, (0, 0.0, 0.0)) for n in names]
        return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows))

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer figures of one round; unit and direction live in
        BENCHMARK.json."""
        m: dict[str, float] = {}

        def put(metric, *names, calls=True, incl=True, own=False):
            c, s, own_s = self._stat(*names)
            if calls:
                m[f"{metric}.calls"] = c
            if incl:
                m[f"{metric}.s"] = s
            if own:
                m[f"{metric}.self_s"] = own_s

        c, _, own_s = self._stat("cli.main")
        m["cli.calls"], m["cli.self_s"] = c, own_s
        put("engine.parse_brick", "engine.parse_brick")
        put("numlat.parse_nat", "numlat.parse_nat")
        put("engine.minimal_set", "engine.minimal_set")
        put("engine.is_tilable", "engine.is_tilable", calls=False)
        put("engine.ext_dir.small", "engine.ext_dir.small")
        put("engine.ext_dir.large", "engine.ext_dir.large")
        for key in ("engine.ext_dir.bricks_in", "engine.ext_dir.bricks_out"):
            m[key] = self.counters.get(key, 0)
        put("engine.minimal_elements", "engine.minimal_elements")
        seen = self.counters.get("engine.minimal_elements.in", 0)
        m["engine.minimal_elements.kept_ratio"] = (
            self.counters.get("engine.minimal_elements.out", 0) / seen
            if seen else 0.0)
        for metric, names in GROUPS.items():
            put(metric, *names)
        put("dedekind.reduce_words", "dedekind.reduce_words")
        put("dedekind.enumerate_lattice", "dedekind.enumerate_lattice",
            calls=False)
        put("maxrank.geometric_maxrank", "maxrank.geometric_maxrank",
            calls=False)
        put("archetypes.next_minimal_level", "archetypes.next_minimal_level",
            calls=False)
        put("archetypes.certificate", "archetypes.certificate",
            calls=False, incl=False, own=True)
        put("witness.tile_witness", "witness.tile_witness", own=True)
        put("witness.parallel_pack", "witness.parallel_pack", calls=False)
        put("witness.combine_witness", "witness.combine_witness")
        put("witness.verify_witness", "witness.verify_witness")
        put("witness.witness_to_json", "witness.witness_to_json", calls=False)
        for key in ("witness.json_bytes", "witness.max_abs_coeff",
                    "witness_placements"):
            m[key] = self.counters.get(key, 0)
        return m

    def write(self, path) -> None:
        """One JSON line per span, then the per-name totals and counters."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({
                "totals": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.stats.items())},
                "counters": self.counters,
                "not_wrapped": self.missing,
            }) + "\n")


def install(package) -> Tracer:
    """Wrap WRAPPED in every module of the package that holds them."""
    tracer = Tracer()
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    for module, fname, keep in WRAPPED:
        mod = importlib.import_module(f"{package.__name__}.{module}")
        original = getattr(mod, fname, None)
        if original is None:
            # a function a later version dropped: its metrics read 0
            tracer.missing.append(f"{module}.{fname}")
            continue
        wrapper = tracer.wrap(module, fname, original, keep)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
    return tracer
