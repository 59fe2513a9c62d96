"""A WSGI front end for :class:`~repro.server.server.JobServer`.

Routes::

    POST /jobs                submit and wait for the response (200/400);
                              queue-full admission rejections map to 429
                              with a ``Retry-After`` header, shutdown
                              rejections to 503, deadline timeouts to 408,
                              a body over ``MAX_BODY_BYTES`` to 413 (unread)
    POST /jobs?mode=async     submit and return ``202 {"job_id": ...}``
    GET  /jobs/<id>           job status (plus the response once terminal)
    GET  /metrics             the metrics snapshot — aggregated across
                              every worker process on the process backend

Multi-tenant envelope: ``?tenant=`` (or an ``X-Tenant`` header) and
``?priority=`` tag the submission for fair-share admission; both default
to the document's own ``tenant``/``priority`` fields.

Whatever a client submits, the answer is a structured document (a
refusal carries ``status`` and a string ``kind``), never a traceback.
Usable with any WSGI server or called directly in tests; no sockets.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable
from urllib.parse import parse_qs

from ..api.serde import PlanDocumentError
from .jobs import JobState
from .server import JobServer

StartResponse = Callable[..., Any]
WsgiApp = Callable[[dict[str, Any], StartResponse], Iterable[bytes]]

#: Largest ``POST /jobs`` body read; a longer ``CONTENT_LENGTH`` is
#: refused before a byte of it is.
MAX_BODY_BYTES = 16 * 1024 * 1024

_STATUS_LINES = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    408: "408 Request Timeout",
    413: "413 Content Too Large",
    429: "429 Too Many Requests",
    503: "503 Service Unavailable",
}


def _reply(start_response: StartResponse, code: int,
           payload: dict[str, Any]) -> list[bytes]:
    headers = [("Content-Type", "application/json")]
    if code == 429 and "retry_after_s" in payload:
        # RFC-style backpressure hint: the 429 body's estimate (derived
        # from the server's service-time EWMA), rounded up to whole
        # seconds for the header form.
        headers.append(("Retry-After",
                        str(max(1, round(payload["retry_after_s"])))))
    start_response(_STATUS_LINES[code], headers)
    return [json.dumps(payload).encode()]


def _response_code(response: dict[str, Any]) -> int:
    if response.get("status") == "ok":
        return 200
    if response.get("status") == "rejected":
        return int(response.get("code", 429))
    if response.get("kind") == "Timeout":
        return 408
    return 400


def make_wsgi_app(server: JobServer) -> WsgiApp:
    """A WSGI application serving the job server's REST interface."""

    def app(environ: dict[str, Any],
            start_response: StartResponse) -> Iterable[bytes]:
        method = environ.get("REQUEST_METHOD", "")
        path = environ.get("PATH_INFO", "")

        if method == "GET" and path == "/metrics":
            return _reply(start_response, 200, server.metrics_snapshot())

        if method == "GET" and path.startswith("/jobs/"):
            status = server.status(path[len("/jobs/"):])
            if status is None:
                return _reply(start_response, 404, {
                    "status": "error", "error": "unknown job id"})
            return _reply(start_response, 200, status)

        if method != "POST" or path != "/jobs":
            return _reply(start_response, 404, {
                "status": "error",
                "error": "POST /jobs, GET /jobs/<id> or GET /metrics"})

        def refuse(error: str, code: int = 400,
                   kind: str = "BadRequest") -> list[bytes]:
            return _reply(start_response, code, {
                "status": "error", "kind": kind, "error": error})

        # Malformed input is caught, never looked for: no walk of the
        # document on the hot path.
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
            if length > MAX_BODY_BYTES:
                return refuse(f"request body of {length} bytes exceeds "
                              f"{MAX_BODY_BYTES}", 413, "PayloadTooLarge")
            document = json.loads(
                environ["wsgi.input"].read(max(length, 0)))
        except (ValueError, KeyError, RecursionError) as exc:
            return refuse(f"bad JSON: {exc}")
        if not isinstance(document, dict):
            return refuse("bad JSON: a job document is an object")

        query = parse_qs(environ.get("QUERY_STRING", ""))
        deadline_s: float | None = None
        if "deadline_s" in query:
            try:
                deadline_s = float(query["deadline_s"][0])
            except ValueError:
                return refuse("bad deadline_s")
        # The envelope: query string, then header, then the document's.
        tenant = (query["tenant"][0] if "tenant" in query
                  else environ.get("HTTP_X_TENANT") or None)
        try:
            priority = (int(query["priority"][0]) if "priority" in query
                        else None)
        except ValueError:
            return refuse("bad priority")

        try:
            job = server.submit(document, deadline_s=deadline_s,
                                tenant=tenant, priority=priority)
        except RecursionError as exc:  # nested just short of the parser's
            return refuse(f"bad JSON: {exc}")
        except PlanDocumentError as exc:  # the document's tenant / priority
            return refuse(str(exc))
        if job.state is JobState.REJECTED:
            assert job.response is not None
            return _reply(start_response, _response_code(job.response),
                          job.response)
        if query.get("mode", [""])[0] == "async":
            return _reply(start_response, 202, {
                "status": "queued", "job_id": job.job_id})
        response = server.result(job.job_id)
        return _reply(start_response, _response_code(response), response)

    return app
