"""Run one casimirlab command in this process with every layer traced.

    python3 perfbench/tracer.py OUT.json REFERENCE -- <casimirlab arguments>

REFERENCE is ``drude``, ``tabulated`` or ``none``: the reference model that
the command's theory curve is checked against after the command has run.

The program is not changed. Before the command runs, each layer's public
functions are wrapped by replacing every ``casimirlab.*`` module attribute
bound to that function object (``cli``, ``assemble`` and ``synth`` import
names directly), and ``DielectricModel.eps`` and ``TheoryCurve.__init__`` /
``__call__`` are wrapped on the class. Calls to a span function record a span
(name, start, end, parent, self time). Hot leaf calls are aggregated into
counters keyed by (name, nearest enclosing frame): count, total and self
time. Self time is a call's duration minus that of the traced calls inside
it. Everything stays in memory and is written to OUT.json at the end, with
the command's exit code and the time the post-run checks took.
"""

import functools
import json
import sys
import time

import reference

# (module, attribute path) of the functions traced with one span per call.
SPANS = (
    ("dielectric", "load_optical_table"),
    ("dielectric", "tabulated_with_drude_tail"),
    ("corrections", "TheoryCurve.__init__"),
    ("synth", "generate_scans"),
    ("synth", "write_campaign"),
    ("synth", "load_campaign"),
    ("analysis", "calibrate_spring_constant"),
    ("analysis", "fit_contact_separation"),
    ("analysis", "average_scans"),
    ("analysis", "compare_to_theory"),
    ("analysis", "analyze_campaign"),
    ("cli", "atomic_write"),
)
# Hot leaves, aggregated into counters instead of one span per call.
COUNTERS = (
    ("dielectric", "DielectricModel.eps"),
    ("lifshitz", "casimir_force_sphere_plate"),
    ("corrections", "corrected_force"),
    ("corrections", "TheoryCurve.__call__"),
    ("electrostatics", "sphere_plane_force_exact"),
    ("forcecurve", "save_scan"),
    ("forcecurve", "load_scan"),
    ("analysis", "fit_drift_coefficient"),
    ("analysis", "extract_casimir"),
)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.stack = []        # frames: [name, start, child_time, span_id]
        self.spans = []
        self.counters = {}     # (name, parent name) -> [count, total_s, self_s]
        self.next_id = 0
        self.eps_seen = set()  # (model id, xi) pairs passed to eps
        self.theory_points = 0
        self.rows_written = 0
        self.bytes_written = 0
        self.rows_read = 0
        self.curves = []       # every TheoryCurve built
        self.force_at = None   # the last Lifshitz call, with z left free

    def enter(self, name):
        frame = [name, time.perf_counter(), 0.0, self.next_id]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def _leave(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        return end, duration, parent

    def leave_span(self, frame):
        end, duration, parent = self._leave(frame)
        self.spans.append({
            "id": frame[3], "name": frame[0],
            "start": frame[1] - self.t0, "end": end - self.t0,
            "parent": parent[3] if parent is not None else None,
            "self": duration - frame[2],
        })

    def leave_counter(self, frame):
        _, duration, parent = self._leave(frame)
        key = (frame[0], parent[0] if parent is not None else "")
        entry = self.counters.get(key)
        if entry is None:
            entry = self.counters[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]


def _resolve(root, path):
    owner, obj = None, root
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


def _make_wrapper(tracer, name, fn, is_span):
    leave = tracer.leave_span if is_span else tracer.leave_counter
    if name == "dielectric.DielectricModel.eps":
        def body(self, xi):
            tracer.eps_seen.add((id(self), xi))
            return fn(self, xi)
    elif name == "corrections.TheoryCurve.__call__":
        def body(self, z_metal):
            tracer.theory_points += getattr(z_metal, "size", 1)
            return fn(self, z_metal)
    elif name == "corrections.TheoryCurve.__init__":
        def body(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            tracer.curves.append(self)
    elif name == "lifshitz.casimir_force_sphere_plate":
        def body(z, *args, **kwargs):
            tracer.force_at = lambda z_other: fn(z_other, *args, **kwargs)
            return fn(z, *args, **kwargs)
    elif name == "forcecurve.save_scan":
        def body(curve, fh):
            start = fh.tell()
            fn(curve, fh)
            tracer.rows_written += curve.piezo_nm.size
            tracer.bytes_written += fh.tell() - start
    elif name == "forcecurve.load_scan":
        def body(source):
            curve = fn(source)
            tracer.rows_read += curve.piezo_nm.size
            return curve
    else:
        body = fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            return body(*args, **kwargs)
        finally:
            leave(frame)

    return wrapper


def install(tracer):
    """Wrap every traced function; return the undo list."""
    import casimirlab.cli  # noqa: F401  (imports every layer)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "casimirlab" or n.startswith("casimirlab."))]
    undo = []
    for specs, is_span in ((SPANS, True), (COUNTERS, False)):
        for module_name, path in specs:
            owner, fn = _resolve(sys.modules[f"casimirlab.{module_name}"], path)
            wrapper = _make_wrapper(tracer, f"{module_name}.{path}", fn, is_span)
            if "." in path:  # a method: wrap it on the class
                attr = path.rsplit(".", 1)[1]
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
    return undo


def accuracy(tracer, kind):
    """Largest relative errors of the Lifshitz force and of the cached theory
    curve against the fixed references, or None where nothing was built."""
    if kind == "none" or not tracer.curves:
        return None, None
    lifshitz_err = spline_err = 0.0
    for z_nm, f_ref in zip(reference.REFERENCE_Z_NM, reference.LIFSHITZ_N[kind]):
        f = tracer.force_at(z_nm * 1e-9)
        lifshitz_err = max(lifshitz_err, abs(f / f_ref - 1.0))
    for curve in tracer.curves:
        for z_nm, f_ref in zip(reference.REFERENCE_Z_NM, reference.CORRECTED_N[kind]):
            if curve.z_min <= z_nm * 1e-9 <= curve.z_max:
                spline_err = max(spline_err, abs(float(curve(z_nm * 1e-9)) / f_ref - 1.0))
    return lifshitz_err, spline_err


def main(argv):
    out_path, kind, sep = argv[:3]
    if sep != "--" or kind not in ("drude", "tabulated", "none"):
        raise SystemExit("usage: tracer.py OUT.json drude|tabulated|none -- ARGS...")
    cli_args = argv[3:]

    tracer = Tracer()
    undo = install(tracer)
    from casimirlab.cli import main as cli_main

    frame = tracer.enter("cli.main")
    try:
        cli_main.main(args=cli_args, prog_name="casimirlab", standalone_mode=False)
        rc = 0
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traced command must still report its trace
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        rc = 1
    finally:
        tracer.leave_span(frame)
    command_end = time.perf_counter()
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)

    lifshitz_err, spline_err = accuracy(tracer, kind) if rc == 0 else (None, None)
    doc = {
        "argv": cli_args,
        "rc": rc,
        "spans": tracer.spans,
        "counters": [[name, parent, *entry]
                     for (name, parent), entry in tracer.counters.items()],
        "eps_distinct": len(tracer.eps_seen),
        "theory_points": tracer.theory_points,
        "rows_written": tracer.rows_written,
        "bytes_written": tracer.bytes_written,
        "rows_read": tracer.rows_read,
        "lifshitz_rel_err_max": lifshitz_err,
        "spline_rel_err_max": spline_err,
        "post_s": time.perf_counter() - command_end,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
