"""Layer-attributed tracing, installed from outside the program.

The tracer wraps public entry points of the repro modules (class methods and
module functions) in spans.  Every span belongs to one layer; a layer's
*self time* is the time its spans cover minus the time their child spans
cover, so the self times of all layers plus the self time of the enclosing
``eval`` span add up to the evaluation's wall time.

Nothing under ``src/`` changes: :meth:`Tracer.install` replaces attributes
on the already-imported classes and modules, and is only ever called in a
traced run, after the untraced evaluations of that run are done.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: Protocol layers, named after the repo module that defines the
#: ProtocolInstance subclass.  Messages and handler time are attributed by
#: the sending or receiving instance's class.
PROTOCOL_LAYERS = {
    "repro.broadcast.bc": "broadcast.bc",
    "repro.broadcast.acast": "broadcast.acast",
    "repro.ba.sba": "ba.sba",
    "repro.ba.aba": "ba.aba",
    "repro.ba.bobw": "ba.bobw",
    "repro.acs.acs": "acs",
    "repro.sharing.wps": "sharing.wps",
    "repro.sharing.vss": "sharing.vss",
    "repro.triples": "triples",
    "repro.mpc": "mpc",
}

#: Cap on raw span records kept for the trace artifact (aggregates are exact).
SPAN_RECORD_LIMIT = 20000

KERNEL_METHODS = (
    "normalize", "to_list", "as_matrix", "matrix_row", "take_rows",
    "take_columns", "transpose", "add", "sub", "rsub", "mul", "neg",
    "batch_inverse", "dot", "vec_sum", "rowmat", "rows_dot", "mat_rows",
    "mat_vecs", "mismatch_counts",
)


def protocol_layer(module: str) -> Optional[str]:
    for prefix, layer in PROTOCOL_LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def _leading_len(operands) -> int:
    """Elements in a kernel call's leading operand (rows x cols for matrices)."""
    for arg in operands:
        try:
            size = len(arg)
        except TypeError:
            continue
        if size and hasattr(arg, "__getitem__"):
            try:
                inner = len(arg[0])
            except (TypeError, IndexError, KeyError):
                inner = 1
            return size * max(1, inner)
        return size
    return 0


class LayerStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Span stack plus per-layer aggregates and counters for one traced pass."""

    def __init__(self) -> None:
        self.stack: List[list] = []
        self.layers: Dict[str, LayerStats] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.eval_id = -1
        self.heap_peak = 0
        self._payloads: Dict[int, Any] = {}
        self._layer_of_class: Dict[type, Optional[str]] = {}
        self._kernel_depth = 0
        self._kernel_fell_back = False
        self._batch_decode_depth = 0
        self._installed = False

    # -- aggregation --------------------------------------------------------
    def reset(self) -> None:
        for stats in self.layers.values():
            stats.calls, stats.total, stats.self = 0, 0.0, 0.0
        self.counters.clear()
        self.spans.clear()
        self.spans_dropped = 0
        self.heap_peak = 0
        self._payloads.clear()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def stats(self, layer: str) -> LayerStats:
        stats = self.layers.get(layer)
        if stats is None:
            stats = self.layers[layer] = LayerStats()
        return stats

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` run inside a span of ``layer``."""
        stats = self.stats(layer)
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            start = clock()
            frame = [start, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                duration = end - start
                stats.calls += 1
                stats.total += duration
                stats.self += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(spans) < SPAN_RECORD_LIMIT:
                    spans.append((layer, start, end, len(stack), tracer.eval_id))
                else:
                    tracer.spans_dropped += 1

        traced.__wrapped__ = fn
        return traced

    def span(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` once inside a span of ``layer``; returns its result."""
        return self.wrap(layer, fn)(*args, **kwargs)

    def begin_eval(self, eval_id: int) -> None:
        self.eval_id = eval_id
        self._payloads.clear()

    def end_eval(self) -> None:
        self.count("messages.distinct", len(self._payloads))
        self._payloads.clear()

    def layer_of_instance(self, instance: Any) -> Optional[str]:
        cls = type(instance)
        try:
            return self._layer_of_class[cls]
        except KeyError:
            layer = protocol_layer(cls.__module__)
            self._layer_of_class[cls] = layer
            return layer

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap the program's layer boundaries (idempotent)."""
        if self._installed:
            return
        self._installed = True
        self._install_protocol_layers()
        self._install_sim()
        self._install_accounting()
        self._install_field()
        self._install_codes()
        self._install_wire()

    @staticmethod
    def _replace_function(original: Callable, replacement: Callable) -> None:
        """Rebind every module-level reference to ``original`` under repro."""
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _install_protocol_layers(self) -> None:
        import repro.mpc  # noqa: F401  (imports every protocol module)
        import repro.service  # noqa: F401
        from repro.sim.party import ProtocolInstance

        tracer = self
        seen = set()
        pending = list(ProtocolInstance.__subclasses__())
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            layer = protocol_layer(cls.__module__)
            if layer is None:
                continue
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not callable(value) or isinstance(
                    value, (staticmethod, classmethod, type)
                ):
                    continue
                if attr == "receive":
                    setattr(cls, attr, self._wrap_receive(layer, value))
                else:
                    setattr(cls, attr, self.wrap(layer, value))

        # Timer and output callbacks run the *registering* code: attribute
        # them to the layer of the module that defined the callback.
        original_on_output = ProtocolInstance.on_output
        original_schedule_at = ProtocolInstance.schedule_at
        original_schedule_after = ProtocolInstance.schedule_after
        original_set_output = ProtocolInstance.set_output

        def callback_layer(callback) -> Optional[str]:
            return protocol_layer(getattr(callback, "__module__", "") or "")

        def on_output(instance, callback):
            layer = callback_layer(callback)
            if layer is not None:
                callback = tracer.wrap(layer, callback)
            return original_on_output(instance, callback)

        def schedule_at(instance, at, callback):
            layer = callback_layer(callback)
            if layer is not None:
                callback = tracer.wrap(layer, callback)
            return original_schedule_at(instance, at, callback)

        def schedule_after(instance, delay, callback):
            layer = callback_layer(callback)
            if layer is not None:
                callback = tracer.wrap(layer, callback)
            return original_schedule_after(instance, delay, callback)

        ProtocolInstance.on_output = on_output
        ProtocolInstance.schedule_at = schedule_at
        ProtocolInstance.schedule_after = schedule_after

        from repro.triples.preprocessing import Preprocessing

        def set_output(instance, value):
            if not instance.has_output and instance.party.id == 1:
                tracer.count("triples.produced", len(value))
            return original_set_output(instance, value)

        Preprocessing.set_output = set_output

    def _wrap_receive(self, layer: str, fn: Callable) -> Callable:
        traced = self.wrap(layer, fn)
        counter = layer + ".msgs_in"
        counters = self.counters

        def receive(instance, sender, payload):
            counters[counter] = counters.get(counter, 0) + 1
            return traced(instance, sender, payload)

        receive.__wrapped__ = fn
        return receive

    def _install_sim(self) -> None:
        from repro.sim.messages import Message
        from repro.sim.simulator import Simulator

        tracer = self
        counters = self.counters
        traced_step = self.wrap("sim", Simulator.step)
        original_run = Simulator.run

        def step(sim):
            counters["sim.events"] = counters.get("sim.events", 0) + 1
            pending = sim.pending_events
            if pending > tracer.heap_peak:
                tracer.heap_peak = pending
            return traced_step(sim)

        def run(sim, until=None, max_time=None, max_events=None):
            if until is not None:
                until = tracer.wrap("sim.until", until)
            return original_run(sim, until=until, max_time=max_time, max_events=max_events)

        Simulator.step = step
        Simulator.run = run
        Simulator.submit_message = self.wrap("sim", Simulator.submit_message)

        # Message construction is the only caller of payload_bits; wrapping
        # it (rather than the recursive function) times each payload once.
        traced_init = self.wrap("messages", Message.__init__)
        payloads = self._payloads

        def message_init(message, sender, recipient, tag, payload, send_time):
            payloads[id(payload)] = payload
            traced_init(message, sender, recipient, tag, payload, send_time)

        Message.__init__ = message_init

    def _install_accounting(self) -> None:
        from repro.runtime import api

        tracer = self
        original = api.account_dispatch
        counters = self.counters
        traced = self.wrap("accounting", original)

        def account_dispatch(runtime, message):
            if message.sender != message.recipient:
                instance = runtime.parties[message.sender].instances.get(message.tag)
                layer = tracer.layer_of_instance(instance) if instance is not None else None
                if layer is not None:
                    key_out = layer + ".msgs_out"
                    key_bits = layer + ".bits_out"
                    counters[key_out] = counters.get(key_out, 0) + 1
                    counters[key_bits] = counters.get(key_bits, 0) + message.bits
            return traced(runtime, message)

        self._replace_function(original, account_dispatch)

    def _install_field(self) -> None:
        from repro.field import array, kernels

        tracer = self
        counters = self.counters
        coefficient_caches = {id(cache) for cache in array._CACHES.values()}

        def wrap_kernel(cls, name, fn):
            is_int = issubclass(cls, kernels.IntKernel) and not issubclass(
                cls, kernels.Gmpy2Kernel
            )
            traced = tracer.wrap("field", fn)

            def kernel_op(*args, **kwargs):
                if tracer._kernel_depth:
                    if is_int:
                        tracer._kernel_fell_back = True
                    return traced(*args, **kwargs)
                tracer._kernel_depth = 1
                tracer._kernel_fell_back = is_int
                try:
                    return traced(*args, **kwargs)
                finally:
                    tracer._kernel_depth = 0
                    counters["field.kernel_calls"] = counters.get("field.kernel_calls", 0) + 1
                    counters["field.kernel_elems"] = (
                        counters.get("field.kernel_elems", 0) + _leading_len(args[1:])
                    )
                    if tracer._kernel_fell_back:
                        counters["field.fallback_calls"] = (
                            counters.get("field.fallback_calls", 0) + 1
                        )

            kernel_op.__wrapped__ = fn
            return kernel_op

        # Wrapped on the class: args[0] is the kernel, then the modulus (an int,
        # which _leading_len skips) and the operands.
        for cls in (kernels.IntKernel, kernels.NumpyKernel, kernels.Gmpy2Kernel):
            for name in KERNEL_METHODS:
                fn = vars(cls).get(name)
                if fn is not None:
                    setattr(cls, name, wrap_kernel(cls, name, fn))

        original_get = kernels.LruCache.get

        def cache_get(cache, key):
            value = original_get(cache, key)
            if id(cache) in coefficient_caches:
                counters["field.cache_gets"] = counters.get("field.cache_gets", 0) + 1
                if value is not None:
                    counters["field.cache_hits"] = counters.get("field.cache_hits", 0) + 1
            return value

        kernels.LruCache.get = cache_get

    def _install_codes(self) -> None:
        from repro.codes import oec, reed_solomon

        tracer = self
        counters = self.counters
        original_decode = reed_solomon.rs_decode
        original_batch = reed_solomon.rs_decode_batch
        traced_decode = self.wrap("codes.rs_decode", original_decode)
        traced_batch = self.wrap("codes.rs_decode", original_batch)

        def rs_decode(*args, **kwargs):
            counters["codes.rs_decode_calls"] = counters.get("codes.rs_decode_calls", 0) + 1
            if tracer._batch_decode_depth:
                counters["codes.bw_fallbacks"] = counters.get("codes.bw_fallbacks", 0) + 1
            return traced_decode(*args, **kwargs)

        def rs_decode_batch(*args, **kwargs):
            counters["codes.rs_decode_calls"] = counters.get("codes.rs_decode_calls", 0) + 1
            tracer._batch_decode_depth += 1
            try:
                return traced_batch(*args, **kwargs)
            finally:
                tracer._batch_decode_depth -= 1

        self._replace_function(original_decode, rs_decode)
        self._replace_function(original_batch, rs_decode_batch)

        def wrap_oec(fn):
            traced = tracer.wrap("codes.oec", fn)

            def oec_op(*args, **kwargs):
                counters["codes.oec_calls"] = counters.get("codes.oec_calls", 0) + 1
                return traced(*args, **kwargs)

            oec_op.__wrapped__ = fn
            return oec_op

        for cls in (oec.OnlineErrorCorrector, oec.BatchOnlineErrorCorrector):
            for name in ("add_point", "add_row", "try_decode"):
                fn = vars(cls).get(name)
                if fn is not None:
                    setattr(cls, name, wrap_oec(fn))

    def _install_wire(self) -> None:
        from repro.runtime import tcp_transport, wire

        counters = self.counters
        original_encode = wire.encode_message
        original_decode = wire.decode_message
        traced_encode = self.wrap("wire.encode", original_encode)

        def encode_message(message):
            body = traced_encode(message)
            counters["wire.encode_calls"] = counters.get("wire.encode_calls", 0) + 1
            counters["wire.bytes_out"] = counters.get("wire.bytes_out", 0) + len(body)
            counters["wire.bits_accounted"] = (
                counters.get("wire.bits_accounted", 0) + message.bits
            )
            return body

        self._replace_function(original_encode, encode_message)
        self._replace_function(original_decode, self.wrap("wire.decode", original_decode))

        original_close = tcp_transport.TcpTransport.close

        def close(transport):
            states = list(transport._channel_states.values())
            counters["tcp.dials"] = counters.get("tcp.dials", 0) + sum(s.dials for s in states)
            counters["tcp.reconnects"] = counters.get("tcp.reconnects", 0) + transport.reconnects
            return original_close(transport)

        tcp_transport.TcpTransport.close = close

    # -- reporting ----------------------------------------------------------
    def layer_metrics(self, evals: int) -> Dict[str, float]:
        """Per-evaluation per-layer metrics of the traced pass."""
        per = 1.0 / max(1, evals)
        counters = self.counters
        out: Dict[str, float] = {}

        def self_s(layer: str) -> float:
            stats = self.layers.get(layer)
            return stats.self * per if stats else 0.0

        for layer in PROTOCOL_LAYERS.values():
            out[f"{layer}.msgs_in"] = counters.get(f"{layer}.msgs_in", 0) * per
            out[f"{layer}.msgs_out"] = counters.get(f"{layer}.msgs_out", 0) * per
            out[f"{layer}.bits_out"] = counters.get(f"{layer}.bits_out", 0) * per
            out[f"{layer}.self_s"] = self_s(layer)
        until = self.layers.get("sim.until")
        out["sim.events"] = counters.get("sim.events", 0) * per
        out["sim.self_s"] = self_s("sim")
        out["sim.heap_peak"] = float(self.heap_peak)
        out["sim.until_calls"] = (until.calls if until else 0) * per
        out["sim.until_s"] = self_s("sim.until")
        accounting = self.layers.get("accounting")
        out["accounting.calls"] = (accounting.calls if accounting else 0) * per
        out["accounting.s"] = self_s("accounting")
        messages = self.layers.get("messages")
        bits_calls = messages.calls if messages else 0
        out["messages.payload_bits_calls"] = bits_calls * per
        out["messages.payload_bits_s"] = self_s("messages")
        out["messages.bits_reuse_ratio"] = counters.get("messages.distinct", 0) / max(1, bits_calls)
        kernel_calls = counters.get("field.kernel_calls", 0)
        out["field.kernel_calls"] = kernel_calls * per
        out["field.kernel_elems"] = counters.get("field.kernel_elems", 0) * per
        out["field.kernel_s"] = self_s("field")
        out["field.fallback_share"] = counters.get("field.fallback_calls", 0) / max(1, kernel_calls)
        out["field.cache_hit_ratio"] = counters.get("field.cache_hits", 0) / max(
            1, counters.get("field.cache_gets", 0)
        )
        out["codes.rs_decode_calls"] = counters.get("codes.rs_decode_calls", 0) * per
        out["codes.rs_decode_s"] = self_s("codes.rs_decode")
        out["codes.oec_calls"] = counters.get("codes.oec_calls", 0) * per
        out["codes.oec_s"] = self_s("codes.oec")
        out["codes.bw_fallbacks"] = counters.get("codes.bw_fallbacks", 0) * per
        out["triples.produced"] = counters.get("triples.produced", 0) * per
        encode_calls = counters.get("wire.encode_calls", 0)
        out["wire.encode_calls"] = encode_calls * per
        out["wire.encode_s"] = self_s("wire.encode")
        out["wire.decode_s"] = self_s("wire.decode")
        out["wire.bytes_out"] = counters.get("wire.bytes_out", 0) * per
        out["wire.bytes_per_bit"] = counters.get("wire.bytes_out", 0) / max(
            1, counters.get("wire.bits_accounted", 0)
        )
        out["tcp.dials"] = counters.get("tcp.dials", 0) * per
        out["tcp.reconnects"] = counters.get("tcp.reconnects", 0) * per
        out["trace.unattributed_s"] = self_s("eval")
        return out

    def artifact(self) -> Dict[str, Any]:
        """Aggregates plus the capped raw span sample, for the trace file."""
        return {
            "layers": {
                name: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
                for name, s in sorted(self.layers.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": {
                "fields": ["layer", "start", "end", "depth", "eval_id"],
                "records": self.spans,
                "dropped": self.spans_dropped,
            },
        }
