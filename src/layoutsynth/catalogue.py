"""Object catalogue shared by the benchmark scene templates.

Sizes are full extents (sx, sy, sz) in meters in the object's local
frame, where +x is the facing direction. ``access`` maps face names to
clearance depths; each enabled face gets a square clearance zone of that
depth attached outside the face (``model.regions_from_entry``). Edit
freely; templates read everything from here.
"""

from __future__ import annotations

CATALOGUE: dict[str, dict] = {
    # seating and theater
    "stage": {"size": (3.0, 6.0, 1.0), "access": {"front": 1.0}},
    "seat": {"size": (0.6, 0.6, 1.0), "access": {"front": 0.3}},
    # picnic
    "table_round": {"size": (1.2, 1.2, 0.75), "access": {}},
    "table_rect": {"size": (0.8, 1.8, 0.75), "access": {}},
    "chair": {"size": (0.5, 0.5, 0.9), "access": {"front": 0.35}},
    "trash_can": {"size": (0.4, 0.4, 1.0), "access": {}},
    "bbq_grill": {"size": (0.6, 0.5, 1.0), "access": {"front": 0.5}},
    "carousel": {"size": (3.0, 3.0, 2.5), "access": {"front": 1.0}},
    # living room
    "tv": {"size": (0.3, 1.2, 0.8), "access": {"front": 1.0}},
    "sofa": {"size": (0.9, 2.0, 0.8), "access": {"front": 0.6}},
    "armchair": {"size": (0.85, 0.85, 0.8), "access": {"front": 0.5}},
    "coffee_table": {"size": (0.6, 1.1, 0.45), "access": {}},
    "bookcase": {"size": (0.35, 1.2, 1.8), "access": {"front": 0.6}},
    "coat_rack": {"size": (0.4, 0.4, 1.7), "access": {}},
    "door": {"size": (0.15, 0.95, 2.0), "access": {"front": 0.9}},
    "plant": {"size": (0.45, 0.45, 1.5), "access": {}},
    # bedroom
    "bed": {"size": (2.0, 1.0, 0.6), "access": {"left": 0.3}},
    "footlocker": {"size": (0.5, 0.9, 0.5), "access": {}},
    "table": {"size": (0.8, 1.2, 0.75), "access": {}},
    "floor_lamp": {"size": (0.35, 0.35, 1.6), "access": {}},
    # desk items
    "laptop": {"size": (0.25, 0.35, 0.25), "access": {}},
    "book": {"size": (0.22, 0.15, 0.035), "access": {}},
    "pencil": {"size": (0.18, 0.02, 0.02), "access": {}},
    "plate": {"size": (0.25, 0.25, 0.03), "access": {}},
    "binder": {"size": (0.29, 0.32, 0.06), "access": {}},
    "photo_frame": {"size": (0.05, 0.18, 0.2), "access": {}},
    "potted_plant": {"size": (0.14, 0.14, 0.35), "access": {}},
    "mug": {"size": (0.09, 0.09, 0.1), "access": {}},
    "rubiks_cube": {"size": (0.06, 0.06, 0.06), "access": {}},
    "notepad": {"size": (0.21, 0.15, 0.02), "access": {}},
}
