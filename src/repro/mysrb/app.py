"""The MySRB WSGI application.

A thin CGI-style gateway: it terminates (simulated) https, manages
session keys, and translates form submissions into SRB client calls.
The app itself runs on a grid host ("the web server") and connects to an
SRB server like any other client, so every page load charges real
catalog/network costs.

Security, per the paper: https only (plain http is refused), a unique
session key per sign-on held in a cookie, a 60-minute session limit, and
validation of the key on every request.
"""

from __future__ import annotations

import functools
import inspect
from http.cookies import SimpleCookie
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    get_args
from urllib.parse import parse_qs

from repro.auth.sessions import SessionManager
from repro.auth.users import ROLES, Principal
from repro.core.client import SrbClient
from repro.core.federation import Federation
from repro.errors import (
    AccessDenied,
    AuthError,
    BadCredentials,
    NoSuchCollection,
    NoSuchObject,
    SessionExpired,
    SrbError,
)
from repro.mcat.query import Condition, DisplayOnly
from repro.mysrb import html as H
from repro.mysrb import views
from repro.util import paths

COOKIE_NAME = "MYSRB_SESSION"

StartResponse = Callable[[str, List[Tuple[str, str]]], Any]

#: The forms that are one op each: POST path -> (op, the page shown
#: after, to which the form's ``coll`` is appended).  The op's
#: parameters are read off its signature on :class:`SrbClient`: ``path``
#: is the form's ``coll`` joined with its ``name``; a ``bool`` is true
#: when its field is present; any other required parameter takes its
#: field (``""`` when absent); an optional one keeps its default unless
#: its field is filled, and a ``Sequence[str]`` splits the field on
#: ``|``.
FORM_OPS = {
    **{f"/register/{kind}": (f"register_{kind}", "/browse?path=")
       for kind in ("file", "directory", "sql", "url", "method")},
    "/structural": ("define_structural", "/structural?coll="),
}


@functools.lru_cache(maxsize=None)
def _parameters(op: str) -> Tuple[inspect.Parameter, ...]:
    """The parameters of ``SrbClient.<op>`` after ``self``."""
    signature = inspect.signature(getattr(SrbClient, op), eval_str=True)
    return tuple(signature.parameters.values())[1:]


class Request:
    """Parsed WSGI environ."""

    def __init__(self, environ: Dict[str, Any]):
        self.method = environ.get("REQUEST_METHOD", "GET").upper()
        self.path = environ.get("PATH_INFO", "/") or "/"
        self.scheme = environ.get("wsgi.url_scheme", "http")
        self.query: Dict[str, str] = {
            k: v[0] for k, v in parse_qs(environ.get("QUERY_STRING", "")).items()}
        self.form: Dict[str, str] = {}
        if self.method == "POST":
            try:
                length = int(environ.get("CONTENT_LENGTH") or 0)
            except ValueError:
                length = 0
            body = environ["wsgi.input"].read(length) if length else b""
            self.form = {k: v[0] for k, v in
                         parse_qs(body.decode("utf-8")).items()}
        cookie = SimpleCookie(environ.get("HTTP_COOKIE", ""))
        self.session_key = cookie[COOKIE_NAME].value \
            if COOKIE_NAME in cookie else None

    def param(self, name: str, default: str = "") -> str:
        return self.form.get(name, self.query.get(name, default))


class Response:
    """An HTTP response under construction (status, headers, body)."""

    def __init__(self, body: str, status: str = "200 OK",
                 content_type: str = "text/html; charset=utf-8"):
        self.status = status
        self.headers: List[Tuple[str, str]] = [("Content-Type", content_type)]
        self.body = body.encode("utf-8")

    def set_cookie(self, name: str, value: str) -> None:
        self.headers.append(("Set-Cookie",
                             f"{name}={value}; Secure; HttpOnly; Path=/"))

    @classmethod
    def redirect(cls, location: str) -> "Response":
        resp = cls("", status="303 See Other")
        resp.headers.append(("Location", location))
        return resp


class MySrbApp:
    """WSGI callable serving the MySRB interface for one federation."""

    def __init__(self, federation: Federation, www_host: str = "mysrb-www",
                 server_name: Optional[str] = None,
                 require_https: bool = True):
        self.federation = federation
        self.require_https = require_https
        if www_host not in [h.name for h in federation.network.hosts()]:
            federation.network.add_host(www_host, site="web")
        self.www_host = www_host
        self.server_name = server_name or federation.mcat_server.name
        self.sessions = SessionManager(federation.clock)
        self.pages_served = 0

    # -- WSGI entry point --------------------------------------------------------

    def __call__(self, environ: Dict[str, Any],
                 start_response: StartResponse):
        request = Request(environ)
        response = self.handle(request)
        start_response(response.status, response.headers)
        return [response.body]

    # -- request handling ---------------------------------------------------------

    def handle(self, request: Request) -> Response:
        self.pages_served += 1
        if self.require_https and request.scheme != "https":
            return Response(views.error_page(
                "403 https required",
                "MySRB uses the secure-http (https) protocol."),
                status="403 Forbidden")
        try:
            return self._route(request)
        except (AuthError, SessionExpired) as exc:
            return Response(views.login_form(str(exc)),
                            status="401 Unauthorized")
        except AccessDenied as exc:
            return Response(views.error_page("403 Forbidden", str(exc)),
                            status="403 Forbidden")
        except (NoSuchObject, NoSuchCollection) as exc:
            return Response(views.error_page("404 Not Found", str(exc)),
                            status="404 Not Found")
        except SrbError as exc:
            return Response(views.error_page("400 Bad Request", str(exc)),
                            status="400 Bad Request")

    def _client(self, request: Request) -> SrbClient:
        """An SRB client bound to the caller's session (or public)."""
        client = SrbClient(self.federation, self.www_host, self.server_name)
        if request.session_key is not None:
            session = self.sessions.validate(request.session_key)
            client.ticket = session.ticket
            client.username = str(session.principal)
        return client

    def _route(self, request: Request) -> Response:
        path, method = request.path, request.method
        if path == "/":
            return Response.redirect(f"/browse?path=/{self.federation.zone}")
        if path == "/login" and method == "GET":
            return Response(views.login_form())
        if path == "/login" and method == "POST":
            return self._do_login(request)
        if path == "/logout":
            if request.session_key:
                self.sessions.close(request.session_key)
            return Response.redirect("/login")
        if path == "/help":
            return Response(views.help_page())
        if path == "/resources":
            return Response(views.resources_page(self._client(request)))
        if path == "/status":
            return Response(views.status_page(self._client(request)))
        if path == "/newuser":
            return self._do_newuser(request)

        client = self._client(request)
        if path == "/browse":
            target = request.param("path", f"/{self.federation.zone}")
            return Response(views.browse(
                client, target, cursor=request.param("cursor") or None))
        if path == "/open":
            target = request.param("path")
            page = views.open_object(client, target)
            return Response(page) if page is not None else \
                Response.redirect(f"/browse?path={H.url_quote(target)}")
        if path == "/ingest" and method == "GET":
            return Response(views.ingest_form(
                client, request.param("coll"),
                resources=self._resource_names()))
        if path == "/ingest" and method == "POST":
            return self._do_ingest(client, request)
        if path == "/ingest-bulk" and method == "GET":
            return Response(views.bulk_ingest_form(
                client, request.param("coll"),
                resources=self._resource_names()))
        if path == "/ingest-bulk" and method == "POST":
            return self._do_bulk_ingest(client, request)
        if path == "/mkcoll":
            coll = request.param("coll")
            name = request.param("name")
            if method == "POST" and name:
                client.mkcoll(paths.join(coll, name))
                return Response.redirect(f"/browse?path={H.url_quote(coll)}")
            body = H.form("/mkcoll", H.hidden_field("coll", coll)
                          + H.text_field("name", "New collection name"),
                          submit="Create")
            return Response(H.simple_page("New collection", body))
        if path == "/structural" and method == "GET":
            return Response(views.structural_form(client,
                                                  request.param("coll")))
        if path in FORM_OPS and method == "POST":
            return self._do_form(client, request, *FORM_OPS[path])
        if path == "/metadata" and method == "GET":
            return Response(views.metadata_form(client, request.param("path")))
        if path == "/metadata" and method == "POST":
            return self._do_metadata(client, request)
        if path == "/annotate" and method == "GET":
            p = request.param("path")
            body = H.form("/annotate", H.hidden_field("path", p)
                          + H.select_field("ann_type", "Type",
                                           ["comment", "rating", "errata",
                                            "dialogue", "annotation"])
                          + H.textarea("text", "Text")
                          + H.text_field("location", "Location"),
                          submit="Annotate")
            return Response(H.simple_page(f"Annotate {p}", body))
        if path == "/annotate" and method == "POST":
            p = request.param("path")
            client.add_annotation(p, request.param("ann_type", "comment"),
                                  request.param("text"),
                                  location=request.param("location") or None)
            return Response.redirect(f"/open?path={H.url_quote(p)}")
        if path == "/query" and method == "GET":
            if request.param("run") or request.param("cursor"):
                return self._do_query(client, request)   # next-page link
            scope = request.param("scope", f"/{self.federation.zone}")
            return Response(views.query_form(client, scope))
        if path == "/query" and method == "POST":
            return self._do_query(client, request)
        if path == "/register" and method == "GET":
            return Response(views.register_form(
                client, request.param("coll"),
                resources=self._resource_names()))
        if path == "/edit" and method == "GET":
            return self._edit_form(client, request)
        if path == "/edit" and method == "POST":
            p = request.param("path")
            client.put(p, request.param("content").encode())
            return Response.redirect(f"/open?path={H.url_quote(p)}")
        if path == "/op":
            return self._do_op(client, request)
        raise NoSuchObject(f"no such page {path!r}")

    # -- handlers -------------------------------------------------------------

    def _do_newuser(self, request: Request) -> Response:
        """User registration, restricted to sysadmins."""
        client = self._client(request)
        principal = client.username
        users = self.federation.users
        if not (client.ticket is not None and principal is not None
                and users.exists(principal)
                and users.role_of(principal) == "sysadmin"):
            raise AccessDenied(principal or "public", "register", "users")
        if request.method == "GET":
            return Response(views.newuser_form(client, ROLES))
        username = request.param("username")
        password = request.param("password")
        role = request.param("role", "reader")
        self.federation.add_user(username, password, role=role)
        return Response.redirect(f"/browse?path=/{self.federation.zone}")

    def _do_login(self, request: Request) -> Response:
        username = request.param("username")
        password = request.param("password")
        client = SrbClient(self.federation, self.www_host, self.server_name,
                           username=username, password=password)
        try:
            ticket = client.login()
        except (BadCredentials, AuthError) as exc:
            return Response(views.login_form(f"sign-on failed: {exc}"),
                            status="401 Unauthorized")
        session = self.sessions.open(Principal.parse(username), ticket=ticket)
        resp = Response.redirect(f"/browse?path=/{self.federation.zone}")
        resp.set_cookie(COOKIE_NAME, session.key)
        return resp

    def _resource_names(self) -> List[str]:
        return (self.federation.resources.logical_names()
                + self.federation.resources.physical_names())

    def _do_ingest(self, client: SrbClient, request: Request) -> Response:
        coll = request.param("coll")
        name = request.param("name")
        target = paths.join(coll, name)
        metadata: Dict[str, str] = {}
        triples: List[Tuple[str, Dict[str, Any]]] = []   # Dublin Core first
        for key, value in request.form.items():
            if not value:
                continue
            if key.startswith("meta:"):
                metadata[key[len("meta:"):]] = value
            elif key.startswith("dc:"):
                triples.append(("add_metadata", {
                    "path": target, "attr": key[len("dc:"):], "value": value,
                    "meta_class": "type", "schema_name": "dublin-core"}))
        for i in range(1, 10):
            uname = request.form.get(f"uname{i}")
            if uname and request.form.get(f"uvalue{i}"):
                triples.append(("add_metadata", {
                    "path": target, "attr": uname,
                    "value": request.form[f"uvalue{i}"],
                    "units": request.form.get(f"uunits{i}") or None}))
        container = request.param("container")
        client.ingest(target, request.param("content").encode(),
                      resource=request.param("resource") or None,
                      container=None if container in ("", "(none)") else container,
                      data_type=request.param("data_type") or None,
                      metadata=metadata)
        # the triples go together, but never with the ingest: a refused
        # ingest of an existing path must not annotate what is there
        for outcome in client.batch(*triples):
            outcome.unwrap()        # the page reports the first failure
        return Response.redirect(f"/open?path={H.url_quote(target)}")

    def _do_bulk_ingest(self, client: SrbClient,
                        request: Request) -> Response:
        coll = request.param("coll")
        items: List[Dict[str, Any]] = []
        for i in range(1, 50):
            name = request.form.get(f"name{i}")
            if not name:
                continue
            items.append({"path": paths.join(coll, name),
                          "data": request.form.get(f"content{i}",
                                                   "").encode()})
        if not items:
            return Response.redirect(
                f"/ingest-bulk?coll={H.url_quote(coll)}")
        container = request.param("container")
        results = client.bulk_ingest(
            items, resource=request.param("resource") or None,
            container=None if container in ("", "(none)") else container)
        return Response(views.bulk_ingest_results(client, coll, results))

    def _do_metadata(self, client: SrbClient, request: Request) -> Response:
        p = request.param("path")
        if request.param("copy_from"):
            client.copy_metadata(request.param("copy_from"), p)
        elif request.param("extract_method"):
            client.extract_metadata(p, request.param("extract_method"),
                                    sidecar=request.param("sidecar") or None)
        elif request.param("attr"):
            client.add_metadata(p, request.param("attr"),
                                request.param("value") or None,
                                units=request.param("units") or None)
        return Response.redirect(f"/metadata?path={H.url_quote(p)}")

    def _do_query(self, client: SrbClient, request: Request) -> Response:
        """Run a query and render one page of results.

        Conditions arrive either as form fields (the query form POST) or
        as GET parameters (the *next page* cursor links round-trip them),
        so both are read through :meth:`Request.param`.
        """
        scope = request.param("scope")
        conditions: List[Condition | DisplayOnly] = []
        for i in range(1, 10):
            attr = request.param(f"attr{i}", "")
            if not attr:
                continue
            value = request.param(f"value{i}", "")
            show = bool(request.param(f"show{i}"))
            if value:
                conditions.append(Condition(
                    attr=attr, op=request.param(f"op{i}", "="),
                    value=value, display=show))
            elif show:
                conditions.append(DisplayOnly(attr=attr))
        return Response(views.query_results(
            client, scope, conditions,
            include_annotations=bool(request.param("annotations")),
            include_system=bool(request.param("system")),
            cursor=request.param("cursor") or None))

    def _do_form(self, client: SrbClient, request: Request, op: str,
                 then: str) -> Response:
        """Run ``op`` with its keyword arguments read off the form, by
        the op's signature on :class:`SrbClient` (:data:`FORM_OPS`)."""
        coll = request.param("coll")
        kwargs = {}
        for param in _parameters(op):
            name, kinds = param.name, {param.annotation,
                                       *get_args(param.annotation)}
            field = request.param(name)
            if name == "path":      # the form names its target coll + name
                kwargs[name] = paths.join(coll, request.param("name"))
            elif bool in kinds:
                kwargs[name] = bool(request.form.get(name))
            elif param.default is param.empty:
                kwargs[name] = field
            elif field and Sequence[str] in kinds:
                kwargs[name] = field.split("|")
            elif field and str in kinds:
                kwargs[name] = field
        getattr(client, op)(**kwargs)
        return Response.redirect(then + H.url_quote(coll))

    def _edit_form(self, client: SrbClient, request: Request) -> Response:
        """"edit a file, if it is a small ASCII file"."""
        p = request.param("path")
        info = client.stat(p)
        kind = info.get("kind", "collection")   # a collection's has none
        if not views.editable(kind, info.get("data_type")):
            raise SrbError(f"the edit facility is allowed only for a few "
                           f"data types, not {kind} "
                           f"{info.get('data_type')!r}")
        data = client.get(p)
        body = H.form("/edit", H.hidden_field("path", p)
                      + H.textarea("content", "Contents",
                                   value=data.decode("utf-8", "replace"),
                                   rows=20),
                      submit="Save")
        return Response(H.simple_page(f"Edit {p}", body))

    def _do_op(self, client: SrbClient, request: Request) -> Response:
        """Data-movement operations dispatched from the listing links."""
        action = request.param("action")
        p = request.param("path")
        if request.method == "GET" and action in ("replicate", "copy",
                                                  "move", "link"):
            extra = {
                "replicate": H.select_field("resource", "Target resource",
                                            self._resource_names()),
                "copy": H.text_field("dst", "Destination path"),
                "move": H.text_field("dst", "Destination path"),
                "link": H.text_field("dst", "Link path"),
            }[action]
            body = H.form("/op", H.hidden_field("action", action)
                          + H.hidden_field("path", p) + extra,
                          submit=action)
            return Response(H.simple_page(f"{action} {p}", body))
        if action == "replicate":
            client.replicate(p, request.param("resource"))
        elif action == "copy":
            client.copy(p, request.param("dst"))
        elif action == "move":
            client.move(p, request.param("dst"))
            p = request.param("dst")
        elif action == "link":
            client.link(p, request.param("dst"))
        elif action == "delete":
            parent = paths.dirname(p)
            try:
                client.delete(p)
            except NoSuchObject:
                client.rmcoll(p)
            return Response.redirect(
                f"/browse?path={H.url_quote(parent)}")
        elif action in ("lock", "unlock", "checkout", "checkin"):
            getattr(client, action)(p)      # each an op of that name
        else:
            raise SrbError(f"unknown operation {action!r}")
        return Response.redirect(f"/open?path={H.url_quote(p)}")
