"""In-memory span tracing around calls into the ofdmsar modules.

A Tracer replaces a function at every ``ofdmsar.*`` module attribute that
holds it (for example both ``ofdmsar.rd_imaging.focus_image`` and
``ofdmsar.pipeline.focus_image``), so each call site records a span no
matter which module its caller looks the name up in.  Nothing inside the
program changes; ``uninstall`` puts the original functions back.

A span is one list ``[id, parent_id, name, start_ns, end_ns, cells,
nbytes, trials]``: the last three describe the returned value (array
element count and bytes of its grid, and the ``trials`` attribute of an
ensemble result) and are ``None`` when the value has no such field.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Iterable, Optional

import numpy as np

SPAN_FIELDS = ("id", "parent", "name", "start_ns", "end_ns", "cells",
               "nbytes", "trials")
ID, PARENT, NAME, START, END, CELLS, NBYTES, TRIALS = range(len(SPAN_FIELDS))

PACKAGE = "ofdmsar"
# Public functions timed in the traced run, by defining module.
TRACED_FUNCTIONS = {
    "waveform": ("make_qam", "chi_stats", "gen_symbol_grid"),
    "echo": ("check_cp_margin", "build_channel_matrix", "draw_noise",
             "synthesize_echo", "grid_to_bytes"),
    "tf_filter": ("filter_gains", "apply_tf_filter"),
    "rd_imaging": ("range_compress", "azimuth_fft", "rcmc",
                   "azimuth_compress", "focus_image"),
    "metrics": ("theoretical_resolutions", "ideal_reference_image",
                "measure_mainlobe_width", "islr", "pel", "snr_out",
                "identity_residual"),
    "pipeline": ("pilot_comb_mask", "run_point_ensemble",
                 "point_target_report"),
    "cli": ("parse_config", "run_scenario", "emit_pgm", "main"),
    "pgm": ("write_pgm",),
}


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED_FUNCTIONS.items()
            for fn in fns]


def _describe(value) -> tuple[Optional[int], Optional[int], Optional[int]]:
    """(cells, nbytes, trials) of a returned grid, bytes blob or ensemble."""
    trials = getattr(value, "trials", None)
    if isinstance(value, (bytes, bytearray)):
        return None, len(value), trials
    data = value if isinstance(value, np.ndarray) else getattr(value, "data",
                                                                 None)
    if isinstance(data, np.ndarray):
        return int(data.size), int(data.nbytes), trials
    return None, None, trials


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter_ns(), None, None, None, None]
        self.spans.append(span)
        self._stack.append(span[ID])
        return span

    def _close(self, span: list, value=None):
        span[END] = time.perf_counter_ns()
        span[CELLS], span[NBYTES], span[TRIALS] = _describe(value)
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            value = None
            try:
                value = fn(*args, **kwargs)
                return value
            finally:
                self._close(span, value)
        return traced

    def install(self):
        """Wrap each traced function at every module attribute holding it."""
        homes = {name: importlib.import_module(f"{PACKAGE}.{name}")
                 for name in TRACED_FUNCTIONS}
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, names in TRACED_FUNCTIONS.items():
            home = homes[mod_name]
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(original, f"{mod_name}.{fn_name}")
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapper)
                        self._patches.append((mod, fn_name, original))

    def uninstall(self):
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def adopt(self, spans: Iterable[list]):
        """Append spans recorded by another process, renumbering their ids."""
        offset = len(self.spans)
        for span in spans:
            span = list(span)
            span[ID] += offset
            if span[PARENT] is not None:
                span[PARENT] += offset
            self.spans.append(span)


def self_times_ns(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    Child intervals are clipped to the parent and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START],
                                                          span[END]))
    out = []
    for span in spans:
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span[ID], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out
