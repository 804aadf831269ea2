"""ADL — the application description language document.

Sec. 2.1 of the paper: when the SPL compiler builds an application it emits
an XML description (the ADL) with "the name of each operator in the graph,
their interconnections, their composite containment relationship, their PE
partitioning, and the PE's host placement constraints".  Both the runtime
and the orchestrator consume it: the ORCA service builds its in-memory
stream graph from the ADL files listed in the orchestrator descriptor, and
the exclusive-host-pool actuation *rewrites* the ADL before submission.

Operator parameters that are plain JSON-able values are serialized;
callables and other rich objects are recorded as ``opaque`` so a parsed
ADL still lists every parameter name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ADLError
from repro.spl.compiler import CompiledApplication
from repro.spl.hostpool import HostPool


# ---------------------------------------------------------------------------
# Parsed model (what the orchestrator's stream graph is built from)
# ---------------------------------------------------------------------------


@dataclass
class ADLOperator:
    name: str
    kind: str
    composite: Optional[str]
    pe_index: int
    n_inputs: int
    n_outputs: int
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ADLComposite:
    name: str
    kind: str
    parent: Optional[str]


@dataclass
class ADLPE:
    index: int
    operators: List[str]
    host_pool: Optional[str]
    host_exlocations: List[str] = field(default_factory=list)
    host_colocations: List[str] = field(default_factory=list)


@dataclass
class ADLStream:
    name: str
    src_operator: str
    src_port: int
    dst_operator: str
    dst_port: int


@dataclass
class ADLHostPool:
    name: str
    hosts: List[str]
    tags: List[str]
    size: Optional[int]
    exclusive: bool

    def to_host_pool(self) -> HostPool:
        return HostPool(
            name=self.name,
            hosts=tuple(self.hosts),
            tags=tuple(self.tags),
            size=self.size,
            exclusive=self.exclusive,
        )


@dataclass
class ADLExport:
    operator: str
    stream_id: Optional[str]
    properties: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ADLImport:
    operator: str
    stream_id: Optional[str]
    subscription: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ADLModel:
    """Full parsed ADL document."""

    name: str
    version: str
    operators: List[ADLOperator]
    composites: List[ADLComposite]
    pes: List[ADLPE]
    streams: List[ADLStream]
    host_pools: List[ADLHostPool]
    exports: List[ADLExport]
    imports: List[ADLImport]

    def operator_by_name(self, name: str) -> ADLOperator:
        for op in self.operators:
            if op.name == name:
                return op
        raise ADLError(f"ADL of {self.name!r}: no operator {name!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _serialize_param(value: Any) -> tuple[str, str]:
    """Return (encoding, text) for a parameter value."""
    try:
        return "json", json.dumps(value)
    except (TypeError, ValueError):
        return "opaque", type(value).__name__


def adl_to_xml(compiled: CompiledApplication) -> str:
    """Render the ADL XML document for a compiled application."""
    import xml.etree.ElementTree as ET  # on use: ~0.7 MiB resident a plain run never needs

    app = compiled.application
    root = ET.Element("application", name=app.name, version=app.version)

    pools_el = ET.SubElement(root, "hostpools")
    for pool in app.host_pools:
        pool_el = ET.SubElement(
            pools_el,
            "hostpool",
            name=pool.name,
            exclusive=str(pool.exclusive).lower(),
        )
        if pool.size is not None:
            pool_el.set("size", str(pool.size))
        for host in pool.hosts:
            ET.SubElement(pool_el, "host", name=host)
        for tag in pool.tags:
            ET.SubElement(pool_el, "tag", name=tag)

    comps_el = ET.SubElement(root, "composites")
    for comp in app.graph.composite_instances.values():
        comp_el = ET.SubElement(comps_el, "composite", name=comp.full_name, kind=comp.kind)
        if comp.parent:
            comp_el.set("parent", comp.parent)

    ops_el = ET.SubElement(root, "operators")
    for spec in app.graph.operators.values():
        op_el = ET.SubElement(
            ops_el,
            "operator",
            name=spec.full_name,
            kind=spec.kind,
            peIndex=str(compiled.pe_of(spec.full_name)),
            nInputs=str(spec.n_inputs),
            nOutputs=str(spec.n_outputs),
        )
        if spec.composite:
            op_el.set("composite", spec.composite)
        for key, value in spec.params.items():
            encoding, text = _serialize_param(value)
            param_el = ET.SubElement(op_el, "param", name=key, encoding=encoding)
            param_el.text = text

    pes_el = ET.SubElement(root, "pes")
    for pe in compiled.pes:
        pe_el = ET.SubElement(pes_el, "pe", index=str(pe.index))
        if pe.host_pool:
            pe_el.set("hostpool", pe.host_pool)
        for tag in sorted(pe.host_exlocations):
            ET.SubElement(pe_el, "exlocation", tag=tag)
        for tag in sorted(pe.host_colocations):
            ET.SubElement(pe_el, "colocation", tag=tag)
        for op_name in pe.operators:
            ET.SubElement(pe_el, "operator", name=op_name)

    streams_el = ET.SubElement(root, "streams")
    for edge in app.graph.edges:
        ET.SubElement(
            streams_el,
            "stream",
            name=edge.stream_name,
            srcOperator=edge.src.full_name,
            srcPort=str(edge.src_port),
            dstOperator=edge.dst.full_name,
            dstPort=str(edge.dst_port),
        )

    exports_el = ET.SubElement(root, "exports")
    for export in app.export_specs():
        export_el = ET.SubElement(exports_el, "export", operator=export["operator"])
        if export["stream_id"]:
            export_el.set("streamId", export["stream_id"])
        for key, value in export["properties"].items():
            ET.SubElement(export_el, "property", key=key, value=str(value))

    imports_el = ET.SubElement(root, "imports")
    for import_ in app.import_specs():
        import_el = ET.SubElement(imports_el, "import", operator=import_["operator"])
        if import_["stream_id"]:
            import_el.set("streamId", import_["stream_id"])
        for key, value in import_["subscription"].items():
            ET.SubElement(import_el, "subscription", key=key, value=str(value))

    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def adl_from_xml(text: str) -> ADLModel:
    """Parse an ADL XML document into an :class:`ADLModel`."""
    import xml.etree.ElementTree as ET  # on use: ~0.7 MiB resident a plain run never needs

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ADLError(f"malformed ADL XML: {exc}") from exc
    if root.tag != "application":
        raise ADLError(f"expected <application> root, got <{root.tag}>")
    name = root.get("name")
    if not name:
        raise ADLError("<application> missing name attribute")

    host_pools = []
    for pool_el in root.iterfind("./hostpools/hostpool"):
        size_text = pool_el.get("size")
        host_pools.append(
            ADLHostPool(
                name=pool_el.get("name", ""),
                hosts=[h.get("name", "") for h in pool_el.iterfind("host")],
                tags=[t.get("name", "") for t in pool_el.iterfind("tag")],
                size=int(size_text) if size_text else None,
                exclusive=pool_el.get("exclusive") == "true",
            )
        )

    composites = [
        ADLComposite(
            name=el.get("name", ""),
            kind=el.get("kind", ""),
            parent=el.get("parent") or None,
        )
        for el in root.iterfind("./composites/composite")
    ]

    operators = []
    for op_el in root.iterfind("./operators/operator"):
        params: Dict[str, Any] = {}
        for param_el in op_el.iterfind("param"):
            key = param_el.get("name", "")
            if param_el.get("encoding") == "json":
                params[key] = json.loads(param_el.text or "null")
            else:
                params[key] = {"opaque": param_el.text or ""}
        operators.append(
            ADLOperator(
                name=op_el.get("name", ""),
                kind=op_el.get("kind", ""),
                composite=op_el.get("composite") or None,
                pe_index=int(op_el.get("peIndex", "0")),
                n_inputs=int(op_el.get("nInputs", "0")),
                n_outputs=int(op_el.get("nOutputs", "0")),
                params=params,
            )
        )

    pes = [
        ADLPE(
            index=int(pe_el.get("index", "0")),
            operators=[o.get("name", "") for o in pe_el.iterfind("operator")],
            host_pool=pe_el.get("hostpool") or None,
            host_exlocations=[e.get("tag", "") for e in pe_el.iterfind("exlocation")],
            host_colocations=[c.get("tag", "") for c in pe_el.iterfind("colocation")],
        )
        for pe_el in root.iterfind("./pes/pe")
    ]

    streams = [
        ADLStream(
            name=s.get("name", ""),
            src_operator=s.get("srcOperator", ""),
            src_port=int(s.get("srcPort", "0")),
            dst_operator=s.get("dstOperator", ""),
            dst_port=int(s.get("dstPort", "0")),
        )
        for s in root.iterfind("./streams/stream")
    ]

    exports = []
    for export_el in root.iterfind("./exports/export"):
        exports.append(
            ADLExport(
                operator=export_el.get("operator", ""),
                stream_id=export_el.get("streamId") or None,
                properties={
                    p.get("key", ""): p.get("value", "")
                    for p in export_el.iterfind("property")
                },
            )
        )

    imports = []
    for import_el in root.iterfind("./imports/import"):
        imports.append(
            ADLImport(
                operator=import_el.get("operator", ""),
                stream_id=import_el.get("streamId") or None,
                subscription={
                    s.get("key", ""): s.get("value", "")
                    for s in import_el.iterfind("subscription")
                },
            )
        )

    return ADLModel(
        name=name,
        version=root.get("version", "1.0"),
        operators=operators,
        composites=composites,
        pes=pes,
        streams=streams,
        host_pools=host_pools,
        exports=exports,
        imports=imports,
    )


def adl_model_of(compiled: CompiledApplication) -> ADLModel:
    """Round-trip convenience: the parsed model of a compiled application."""
    return adl_from_xml(adl_to_xml(compiled))
