"""Synthetic scene generator for end-to-end pipeline validation.

Simulates people moving on a ground-plane extent watched by a calibrated
camera, and renders each person to a polygon detection. The geometry is
constructed so the mapping pipeline can be checked against exact truth:

- every agent solid includes a dedicated ground-contact vertex at the
  agent's (x, y), which projects to the unique lowest polygon vertex, so
  the lowest-band footpoint extractor recovers the agent position exactly
  when pixel noise is zero;
- the solid's head apex sits at (x, y, height), so the head-ray height
  estimate is exact as well.

Randomness is counter-based: every frame derives its own generator from
``(seed, frame_index)``, so frames can be produced in any order (or in
parallel) and still match a sequential run bit for bit.

Trajectories are constant-velocity with toroidal wrap-around within the
extent. A uniform initial distribution is stationary under that flow, which
gives honest ground truth for occupancy-uniformity checks. Optionally a
fraction of agents instead dwell in a small orbit around an attractor
point, for studying clustered-use scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraModel, Distortion, Intrinsics, Pose, matrix_to_axis_angle
from .coco import Annotation, Category, Dataset, ImageRecord
from .errors import (FINITE, NON_NEGATIVE, NON_NEGATIVE_WHOLE, POSITIVE, POSITIVE_WHOLE, UNIT,
                     BehindCameraError, ConfigError, read_number)
from .geometry2d import as_flat, clip_to_rect, convex_hull, polygon_area, polygons_bounds
from .mapping import Box3D, GroundObservation, MapExtent
from .taxonomy import default_taxonomy

__all__ = [
    "SimConfig",
    "AgentState",
    "SimFrame",
    "SimResult",
    "default_camera",
    "simulate",
]

_BODY_Z = (0.45, 0.80)  # body box, as a fraction of agent height
_BODY_HALF_WIDTH = {"pedestrian": 0.25, "cyclist": 0.25}
_BODY_HALF_LENGTH = {"pedestrian": 0.30, "cyclist": 0.80}
_DWELL_FRACTION = 0.7  # share of agents that dwell when there is an attractor
_CAMERA_HEIGHT = 6.0  # metres above the ground, of default_camera's pole
_CAMERA_SETBACK = 8.0  # metres behind the extent's y=0 edge, of default_camera's pole


@dataclass(frozen=True)
class SimConfig:
    """One synthetic scene.

    ``attractor`` is a point in the extent's local coordinates, such as a
    bench or fountain at the edge. With it, 70% of the agents dwell in
    orbits within 0.9 m of the point, so that share of agent-time is spent
    within 1 m of it by construction. Without it, every agent is uniform
    through-traffic, whose long-run occupancy is flat.
    """

    extent: MapExtent
    camera: CameraModel
    n_agents: int = 12
    cyclist_fraction: float = 0.0
    fps: float = 1.0
    seed: int = 0
    noise_px: float = 0.0
    miss_rate: float = 0.0
    confusion_rate: float = 0.0
    attractor: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        for value, name, rule in (
            (self.n_agents, "n_agents", POSITIVE_WHOLE),
            (self.seed, "seed", NON_NEGATIVE_WHOLE),
            (self.cyclist_fraction, "cyclist_fraction", UNIT),
            (self.fps, "fps", POSITIVE),
            (self.noise_px, "noise_px", NON_NEGATIVE),
            (self.miss_rate, "miss_rate", UNIT),
            (self.confusion_rate, "confusion_rate", UNIT),
            *((v, "attractor", FINITE) for v in self.attractor or ()),
        ):
            read_number(value, name, rule, ConfigError)


@dataclass(frozen=True)
class _Agent:
    class_name: str
    x0: float  # local extent coords
    y0: float
    heading: float  # local frame, radians
    speed: float
    height: float
    dwells: bool
    orbit_radius: float
    orbit_rate: float
    orbit_phase: float


@dataclass(frozen=True)
class AgentState:
    """World-frame truth for one agent in one frame."""

    class_name: str
    x: float
    y: float
    heading: float
    height: float


@dataclass(frozen=True)
class SimFrame:
    image: ImageRecord
    truth: tuple[AgentState, ...]
    truth_observations: tuple[GroundObservation, ...]  # one per gt annotation, by its id


@dataclass(frozen=True)
class SimResult:
    dataset: Dataset  # ground-truth annotations, exact masks
    detections: list[Annotation]  # noisy scored detections
    frames: list[SimFrame]


def default_camera(
    extent: MapExtent,
    image_size: tuple[int, int] = (1920, 1080),
) -> CameraModel:
    """A plausible pole-mounted camera overlooking the extent.

    Mounted ``_CAMERA_HEIGHT`` metres up, ``_CAMERA_SETBACK`` metres behind
    the middle of the extent's local y=0 edge, looking at the extent center.
    The setback keeps every point of the extent several metres from the
    camera, where the body-box approximation of a person stays well-behaved.
    """
    cam_xy = extent.to_world(extent.width / 2.0, -_CAMERA_SETBACK)
    target_xy = extent.to_world(extent.width / 2.0, extent.length / 2.0)
    center = np.array([cam_xy[0], cam_xy[1], _CAMERA_HEIGHT])
    target = np.array([target_xy[0], target_xy[1], 0.0])

    z_axis = target - center
    z_axis = z_axis / np.linalg.norm(z_axis)
    x_axis = np.cross(z_axis, np.array([0.0, 0.0, 1.0]))
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(z_axis, x_axis)
    rot = np.vstack([x_axis, y_axis, z_axis])
    pose = Pose(
        rvec=tuple(float(v) for v in matrix_to_axis_angle(rot)),
        t=tuple(float(v) for v in (-rot @ center)),
    )
    w, h = image_size
    return CameraModel(
        intrinsics=Intrinsics(fx=1400.0, fy=1400.0, cx=w / 2.0, cy=h / 2.0),
        distortion=Distortion(k1=-0.25, k2=0.08, p1=5e-4, p2=-5e-4),
        pose=pose,
        image_size=image_size,
    )


# ---------------------------------------------------------------------------
# agents and motion
# ---------------------------------------------------------------------------


def _agent_rng(config: SimConfig) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=config.seed, spawn_key=(0, 0)))
    )


def _frame_rng(config: SimConfig, frame: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(
            np.random.SeedSequence(entropy=config.seed, spawn_key=(1, frame))
        )
    )


def _init_agents(config: SimConfig) -> tuple[_Agent, ...]:
    rng = _agent_rng(config)
    agents = []
    n_dwell = round(_DWELL_FRACTION * config.n_agents) if config.attractor is not None else 0
    for i in range(config.n_agents):
        is_cyclist = rng.random() < config.cyclist_fraction
        class_name = "cyclist" if is_cyclist else "pedestrian"
        x0 = rng.uniform(0.0, config.extent.width)
        y0 = rng.uniform(0.0, config.extent.length)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        speed = (
            float(np.clip(rng.normal(4.0, 0.8), 1.0, 8.0))
            if is_cyclist
            else float(np.clip(rng.normal(1.4, 0.2), 0.5, 2.5))
        )
        height = float(np.clip(rng.normal(1.70, 0.07), 1.45, 2.0))
        dwells = i < n_dwell
        agents.append(
            _Agent(
                class_name=class_name,
                x0=x0,
                y0=y0,
                heading=heading,
                speed=speed,
                height=height,
                dwells=dwells,
                orbit_radius=float(rng.uniform(0.2, 0.9)),
                orbit_rate=float(rng.uniform(0.1, 0.5)),
                orbit_phase=float(rng.uniform(0.0, 2.0 * math.pi)),
            )
        )
    return tuple(agents)


def _agent_local_position(agent: _Agent, config: SimConfig, t: float) -> tuple[float, float]:
    if agent.dwells and config.attractor is not None:
        ax, ay = config.attractor
        ang = agent.orbit_phase + agent.orbit_rate * t
        return (
            ax + agent.orbit_radius * math.cos(ang),
            ay + agent.orbit_radius * math.sin(ang),
        )
    x = (agent.x0 + agent.speed * t * math.cos(agent.heading)) % config.extent.width
    y = (agent.y0 + agent.speed * t * math.sin(agent.heading)) % config.extent.length
    return x, y


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _solid_vertices(state: AgentState) -> np.ndarray:
    """World-frame vertices whose convex hull is the agent's silhouette.

    One ground-contact vertex at the agent position, an oriented body box
    between 45% and 80% of the agent's height, and the head apex. Ground
    contact and apex sit strictly below/above the box, so they project to
    the extreme polygon vertices the footpoint/head extractors pick up.
    """
    hw = _BODY_HALF_WIDTH[state.class_name]
    hl = _BODY_HALF_LENGTH[state.class_name]
    c, s = math.cos(state.heading), math.sin(state.heading)
    verts = [(state.x, state.y, 0.0)]
    for dl in (-hl, hl):
        for dw in (-hw, hw):
            bx = state.x + dl * c - dw * s
            by = state.y + dl * s + dw * c
            for zf in _BODY_Z:
                verts.append((bx, by, zf * state.height))
    verts.append((state.x, state.y, state.height))
    return np.array(verts)


def _render_agent_polygon(
    camera: CameraModel, state: AgentState
) -> list[float] | None:
    """Project an agent to its image-plane polygon, or None if not visible."""
    try:
        pix = camera.project(_solid_vertices(state))
    except BehindCameraError:
        return None
    hull = convex_hull(pix)
    if len(hull) < 3:
        return None
    w, h = camera.image_size
    clipped = clip_to_rect(hull, 0.0, 0.0, float(w), float(h))
    if len(clipped) < 3:
        return None
    flat = as_flat(clipped)
    if polygon_area(flat) < 1.0:
        return None
    return flat


def simulate(config: SimConfig, n_frames: int) -> SimResult:
    """Generate a sequence of frames with ground truth and noisy detections.

    The ground-truth dataset carries exact polygons (no scores); the
    detection list re-renders the same polygons with per-vertex Gaussian
    pixel noise, per-detection misses, and a synthetic confidence score.
    """
    if n_frames < 1:
        raise ConfigError("need at least one frame")
    agents = _init_agents(config)
    taxonomy = default_taxonomy()
    class_ids = {c.name: c.class_id for c in taxonomy.classes}
    width, height = config.camera.image_size

    images: list[ImageRecord] = []
    gt_anns: list[Annotation] = []
    detections: list[Annotation] = []
    frames: list[SimFrame] = []
    next_gt_id = 1
    next_det_id = 1
    for k in range(n_frames):
        t = k / config.fps
        rng = _frame_rng(config, k)
        image = ImageRecord(
            id=k + 1,
            file_name=f"frame_{k:06d}.png",
            width=width,
            height=height,
            extra={"timestamp": t},
        )
        truth = []
        frame_truth_obs: list[GroundObservation] = []
        for agent in agents:
            lx, ly = _agent_local_position(agent, config, t)
            wx, wy = config.extent.to_world(lx, ly)
            state = AgentState(
                class_name=agent.class_name,
                x=wx,
                y=wy,
                heading=agent.heading + config.extent.rotation,
                height=agent.height,
            )
            truth.append(state)
            # draw the noise for this agent unconditionally so the stream
            # stays aligned whether or not the agent is visible
            miss_draw = float(rng.random())
            score = float(np.clip(rng.normal(0.90, 0.08), 0.05, 1.0))
            confuse_draw = float(rng.random())

            poly = _render_agent_polygon(config.camera, state)
            if poly is None:
                continue
            gt_ann = Annotation(
                id=next_gt_id,
                image_id=image.id,
                category_id=class_ids[state.class_name],
                segmentation=[poly],
                bbox=polygons_bounds([poly]),
                area=polygon_area(poly),
            )
            next_gt_id += 1
            gt_anns.append(gt_ann)
            hw = _BODY_HALF_WIDTH[state.class_name]
            hl = _BODY_HALF_LENGTH[state.class_name]
            frame_truth_obs.append(
                GroundObservation(
                    class_name=state.class_name,
                    x=state.x,
                    y=state.y,
                    box=Box3D(
                        yaw=state.heading,
                        width=2.0 * hw,
                        length=2.0 * hl,
                        height=state.height,
                    ),
                    annotation_id=gt_ann.id,
                    image_id=image.id,
                    timestamp=t,
                    source="sim",
                )
            )

            if miss_draw < config.miss_rate:
                continue
            noisy = np.array(poly, dtype=float)
            if config.noise_px > 0:
                noisy = noisy + rng.normal(0.0, config.noise_px, size=noisy.shape)
                noisy[0::2] = np.clip(noisy[0::2], 0.0, float(width))
                noisy[1::2] = np.clip(noisy[1::2], 0.0, float(height))
            noisy_list = [float(v) for v in noisy]
            det_class = state.class_name
            if confuse_draw < config.confusion_rate:
                det_class = "cyclist" if det_class == "pedestrian" else "pedestrian"
            detections.append(
                Annotation(
                    id=next_det_id,
                    image_id=image.id,
                    category_id=class_ids[det_class],
                    segmentation=[noisy_list],
                    bbox=polygons_bounds([noisy_list]),
                    area=polygon_area(noisy_list),
                    score=score,
                )
            )
            next_det_id += 1

        images.append(image)
        frames.append(
            SimFrame(
                image=image,
                truth=tuple(truth),
                truth_observations=tuple(frame_truth_obs),
            )
        )

    categories = [
        Category(id=c.class_id, name=c.name, supercategory=c.supercategory)
        for c in taxonomy.classes
    ]
    dataset = Dataset(images=images, annotations=gt_anns, categories=categories)
    return SimResult(dataset=dataset, detections=detections, frames=frames)
