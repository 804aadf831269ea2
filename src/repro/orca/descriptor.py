"""Orchestrator descriptor.

Sec. 3 of the paper: compiling the ORCA logic produces a shared library,
plus "an XML file which contains the basic description of the ORCA logic
artifacts (e.g., ORCA name and shared library path) and a list of all
applications that can be controlled from the orchestrator.  Each list item
contains the application name and a path to its corresponding ADL file."

Our Python equivalent keeps the same structure: the "shared library" is an
:class:`~repro.orca.orchestrator.Orchestrator` factory (a class or a
dotted import path resolved at load time), and each managed application
entry carries the in-memory :class:`~repro.spl.application.Application`
and/or its ADL XML text.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro.errors import DescriptorError
from repro.orca.orchestrator import Orchestrator
from repro.spl.application import Application


@dataclass
class ManagedApplication:
    """One application the orchestrator may submit and act upon."""

    name: str
    application: Optional[Application] = None
    adl_xml: Optional[str] = None
    #: default compile strategy for this application
    compile_strategy: str = "manual"
    compile_target_pe_count: int = 0

    def __post_init__(self) -> None:
        if self.application is None and self.adl_xml is None:
            raise DescriptorError(
                f"managed application {self.name!r} needs an Application or ADL"
            )
        if self.application is not None and self.application.name != self.name:
            raise DescriptorError(
                f"managed application name {self.name!r} does not match "
                f"Application.name {self.application.name!r}"
            )


OrchestratorFactory = Union[type, Callable[[], Orchestrator], str]


@dataclass
class OrcaDescriptor:
    """The MyORCA.xml equivalent submitted to SAM (Fig. 4)."""

    name: str
    logic: OrchestratorFactory
    applications: List[ManagedApplication] = field(default_factory=list)
    #: initial SRM metric poll interval; None = system default (15 s)
    metric_poll_interval: Optional[float] = None

    def create_logic(self) -> Orchestrator:
        """Instantiate the ORCA logic ("load the shared library")."""
        factory = self.logic
        if isinstance(factory, str):
            factory = resolve_dotted(factory)
        instance = factory()
        if not isinstance(instance, Orchestrator):
            raise DescriptorError(
                f"orchestrator factory of {self.name!r} produced "
                f"{type(instance).__name__}, not an Orchestrator"
            )
        return instance

    def application(self, name: str) -> ManagedApplication:
        for managed in self.applications:
            if managed.name == name:
                return managed
        raise DescriptorError(
            f"orchestrator {self.name!r} does not manage application {name!r}"
        )

    def manages(self, name: str) -> bool:
        return any(m.name == name for m in self.applications)

    # -- XML round trip ----------------------------------------------------------

    def to_xml(self) -> str:
        """Serialize to the MyORCA.xml shape (logic as dotted path)."""
        import xml.etree.ElementTree as ET  # on use: ~0.7 MiB resident a plain run never needs

        if not isinstance(self.logic, str):
            logic_path = f"{self.logic.__module__}.{self.logic.__qualname__}"
        else:
            logic_path = self.logic
        root = ET.Element("orchestrator", name=self.name, logic=logic_path)
        if self.metric_poll_interval is not None:
            root.set("metricPollInterval", str(self.metric_poll_interval))
        apps_el = ET.SubElement(root, "applications")
        for managed in self.applications:
            app_el = ET.SubElement(apps_el, "application", name=managed.name)
            app_el.set("compileStrategy", managed.compile_strategy)
            if managed.compile_target_pe_count:
                app_el.set("compileTargetPeCount", str(managed.compile_target_pe_count))
            if managed.adl_xml is not None:
                adl_el = ET.SubElement(app_el, "adl")
                adl_el.text = managed.adl_xml
        ET.indent(root)
        return ET.tostring(root, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "OrcaDescriptor":
        import xml.etree.ElementTree as ET  # on use: ~0.7 MiB resident a plain run never needs

        try:
            root = ET.fromstring(text)
        except ET.ParseError as exc:
            raise DescriptorError(f"malformed orchestrator XML: {exc}") from exc
        if root.tag != "orchestrator":
            raise DescriptorError(f"expected <orchestrator>, got <{root.tag}>")
        name = root.get("name")
        logic = root.get("logic")
        if not name or not logic:
            raise DescriptorError("<orchestrator> needs name and logic attributes")
        poll_text = root.get("metricPollInterval")
        applications = []
        for app_el in root.iterfind("./applications/application"):
            adl_el = app_el.find("adl")
            applications.append(
                ManagedApplication(
                    name=app_el.get("name", ""),
                    adl_xml=adl_el.text if adl_el is not None else None,
                    compile_strategy=app_el.get("compileStrategy", "manual"),
                    compile_target_pe_count=int(
                        app_el.get("compileTargetPeCount", "0")
                    ),
                )
            )
        return cls(
            name=name,
            logic=logic,
            applications=applications,
            metric_poll_interval=float(poll_text) if poll_text else None,
        )


def resolve_dotted(path: str) -> Callable[[], Orchestrator]:
    """Import ``package.module.ClassName`` and return the attribute."""
    module_path, _, attr = path.rpartition(".")
    if not module_path:
        raise DescriptorError(f"not a dotted path: {path!r}")
    try:
        module = importlib.import_module(module_path)
    except ImportError as exc:
        raise DescriptorError(f"cannot import {module_path!r}: {exc}") from exc
    try:
        return getattr(module, attr)
    except AttributeError:
        raise DescriptorError(f"{module_path!r} has no attribute {attr!r}") from None
