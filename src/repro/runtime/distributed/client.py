"""DistributedBackend: the ExperimentRunner backend that talks to a broker.

The client never simulates: it submits the batch's canonical specs, then
polls ``fetch`` and streams payloads back to the runner as workers complete
them -- the same completion-order contract as the process-pool backend, so
the runner caches remote results incrementally and sweeps stay resumable.

Resilience: transport errors retry with the submit/fetch loop (riding out
broker restarts up to ``patience`` seconds of no contact), and specs a
restarted stateless broker no longer knows are transparently resubmitted --
matched on the structured ``never-submitted`` failure code.  Any other
failed key -- a give-up at the attempt cap, or a failure with no code --
surfaces as a :class:`~repro.errors.SimulationError` carrying the broker's
reason.

Results arrive gzipped (``results_gz``).  Every fetch names a frame budget;
payloads the broker cannot inline under it are announced in a ``chunked``
map and streamed with ``fetch_chunk`` in bounded base64-gzip slices,
reassembled and decompressed here.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.runtime.backends import RunnerBackend
from repro.runtime.distributed.protocol import (
    BrokerError,
    FAIL_NEVER_SUBMITTED,
    MAX_FRAME_BYTES,
    ProtocolError,
    decompress_payload,
    format_address,
    request,
)
from repro.runtime.spec import RunSpec


class DistributedBackend(RunnerBackend):
    """Execute specs on a broker/worker fleet (``--backend distributed``).

    Args:
        address: broker ``(host, port)``.
        poll_interval: delay between fetch polls while work is outstanding.
        timeout: overall wall-clock budget for one batch (None = wait
            forever -- workers may legitimately take hours on big sweeps).
            The budget bounds everything, including submit retries against
            an unreachable broker.
        patience: seconds of consecutive transport failures tolerated
            before declaring the broker lost.
        submit_chunk: specs per submit message (bounds message size).
        max_frame_bytes: cap on any single response frame; also announced
            to the broker so oversized payloads arrive chunked.
        clock / sleep: injectable time sources (fake-clock tests).
    """

    name = "distributed"

    def __init__(
        self,
        address: Tuple[str, int],
        poll_interval: float = 0.2,
        timeout: Optional[float] = None,
        patience: float = 60.0,
        submit_chunk: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if max_frame_bytes < 4096:
            raise ValueError(
                f"max_frame_bytes must be >= 4096, got {max_frame_bytes}"
            )
        self.address = address
        self.poll_interval = max(0.01, float(poll_interval))
        self.timeout = timeout
        self.patience = float(patience)
        self.submit_chunk = max(1, int(submit_chunk))
        self.max_frame_bytes = int(max_frame_bytes)
        self._clock = clock
        self._sleep_fn = sleep

    # ------------------------------------------------------------------ api
    def execute(
        self, pending: Sequence[RunSpec]
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        if not pending:
            return
        outstanding: Dict[str, Dict[str, Any]] = {
            spec.key(): spec.canonical() for spec in pending
        }
        started = self._clock()
        last_contact = started
        self._submit(list(outstanding.values()), started)
        # Specs the broker gave up on: collected, not raised, until every
        # other spec has drained -- the RunnerBackend contract is that
        # completed work keeps streaming (and gets cached) before the first
        # failure propagates, same as the process-pool backend.
        fatal: Dict[str, str] = {}
        while outstanding:
            try:
                # The broker defers payloads that do not fit the budget to
                # the chunked stream below.
                response = request(
                    self.address,
                    {
                        "op": "fetch",
                        "keys": sorted(outstanding),
                        "max_frame_bytes": self._response_budget(),
                    },
                    max_bytes=self.max_frame_bytes,
                )
                last_contact = self._clock()
            except BrokerError:
                raise  # semantic rejection: retrying cannot help
            except (OSError, ProtocolError) as exc:
                self._check_patience(last_contact, exc)
                self._sleep(started)
                continue
            fetched: Dict[str, Dict[str, Any]] = {
                key: decompress_payload(blob)
                for key, blob in response.get("results_gz", {}).items()
            }
            for key in response.get("chunked", {}):
                if key in fetched or key not in outstanding:
                    continue
                payload = self._fetch_chunks(key)
                if payload is not None:
                    fetched[key] = payload
                # else: transport hiccup mid-stream; retry next poll.
            for key, payload in fetched.items():
                if key in outstanding:
                    del outstanding[key]
                    yield key, payload
            self._handle_failures(
                response.get("failed", {}),
                response.get("failed_codes", {}),
                outstanding,
                fatal,
                started,
            )
            if outstanding:
                self._sleep(started)
        if fatal:
            raise SimulationError(
                f"broker gave up on {len(fatal)} spec(s): "
                + "; ".join(f"{key[:12]}: {reason}" for key, reason in sorted(fatal.items()))
            )

    # ------------------------------------------------------------ internals
    def _response_budget(self) -> int:
        """Payload bytes the broker may inline in one fetch response --
        half the frame cap, leaving headroom for the JSON envelope."""
        return max(2048, self.max_frame_bytes // 2)

    def _submit(
        self,
        canonicals: List[Dict[str, Any]],
        started: float,
    ) -> None:
        """Submit canonical specs, ``submit_chunk`` per message."""
        for start in range(0, len(canonicals), self.submit_chunk):
            chunk = canonicals[start : start + self.submit_chunk]
            deadline = self._clock() + self.patience
            while True:
                if (
                    self.timeout is not None
                    and self._clock() - started > self.timeout
                ):
                    # The overall batch budget binds here too: an
                    # unreachable broker must not keep the client retrying
                    # past its declared wall-clock limit.
                    raise SimulationError(
                        f"distributed batch exceeded its {self.timeout:.0f}s "
                        f"budget while submitting to broker at "
                        f"{format_address(self.address)}"
                    )
                try:
                    request(self.address, {"op": "submit", "specs": chunk})
                    break
                except BrokerError as exc:
                    # The broker *rejected* the batch (bad spec version,
                    # unknown dataset...): deterministic, surface it now
                    # instead of burning the patience window.
                    raise SimulationError(
                        f"broker at {format_address(self.address)} rejected "
                        f"the submitted specs: {exc}"
                    ) from exc
                except (OSError, ProtocolError) as exc:
                    if self._clock() > deadline:
                        raise SimulationError(
                            f"cannot submit specs to broker at "
                            f"{format_address(self.address)}: {exc}"
                        ) from exc
                    self._sleep_fn(self.poll_interval)

    def _fetch_chunks(self, key: str) -> Optional[Dict[str, Any]]:
        """Stream one payload's base64-gzip encoding in bounded slices.

        Returns ``None`` on any failure (the key stays outstanding and the
        next fetch poll retries); the encoding is deterministic, so slices
        from different polls -- even different broker processes sharing the
        cache -- always reassemble byte-identically.
        """
        chunk_budget = self._response_budget()
        pieces: List[str] = []
        offset = 0
        while True:
            try:
                response = request(
                    self.address,
                    {
                        "op": "fetch_chunk",
                        "key": key,
                        "offset": offset,
                        "max_bytes": chunk_budget,
                    },
                    max_bytes=self.max_frame_bytes,
                )
            except (BrokerError, OSError, ProtocolError):
                return None
            data = str(response.get("data", ""))
            if not data:
                return None
            pieces.append(data)
            offset += len(data)
            if response.get("eof"):
                break
        try:
            return decompress_payload("".join(pieces))
        except ProtocolError:
            return None

    def _handle_failures(
        self,
        failed: Dict[str, str],
        failed_codes: Dict[str, str],
        outstanding: Dict[str, Dict[str, Any]],
        fatal: Dict[str, str],
        started: float,
    ) -> None:
        """Resubmit amnesiac-broker keys; record every other failure as fatal
        (raised by the caller once everything else has drained).

        Only the ``never-submitted`` code means amnesia.  The reason text is
        never matched: a give-up whose reason merely mentions "never
        submitted", or a failure with no code at all, is fatal.
        """
        lost: List[Dict[str, Any]] = []
        for key, reason in failed.items():
            if key not in outstanding:
                continue
            if failed_codes.get(key) == FAIL_NEVER_SUBMITTED:
                # The broker restarted without its journal and forgot the
                # spec; it is still ours to finish, so hand it back.
                lost.append(outstanding[key])
            else:
                fatal[key] = reason
                del outstanding[key]
        if lost:
            self._submit(lost, started)

    def _check_patience(self, last_contact: float, exc: Exception) -> None:
        if self._clock() - last_contact > self.patience:
            raise SimulationError(
                f"lost contact with broker at {format_address(self.address)} "
                f"for over {self.patience:.0f}s: {exc}"
            ) from exc

    def _sleep(self, started: float) -> None:
        if (
            self.timeout is not None
            and self._clock() - started > self.timeout
        ):
            raise SimulationError(
                f"distributed batch exceeded its {self.timeout:.0f}s budget "
                f"(broker {format_address(self.address)})"
            )
        self._sleep_fn(self.poll_interval)
