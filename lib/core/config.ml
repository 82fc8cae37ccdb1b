type heuristic =
  | Profile_guided
  | Static_leaf
  | Static_small of int

type linearization =
  | Lin_weight_sorted
  | Lin_random
  | Lin_reverse
  | Lin_topological

type t = {
  weight_threshold : float;
  stack_bound : int;
  func_size_limit : int;
  program_size_limit_ratio : float;
  linearize_seed : int;
  heuristic : heuristic;
  linearization : linearization;
  refine_pointer_targets : bool;
  devirt : bool;
  devirt_threshold : float;
}

let default =
  {
    weight_threshold = 10.;
    stack_bound = 4096;
    func_size_limit = 4000;
    program_size_limit_ratio = 1.2;
    linearize_seed = 42;
    heuristic = Profile_guided;
    linearization = Lin_weight_sorted;
    refine_pointer_targets = false;
    devirt = false;
    (* Speculate only when >= 80% of a site's measured traffic lands on
       one target: below that, the guard's misses erode the win. *)
    devirt_threshold = 0.8;
  }

let check_devirt_threshold x =
  if x > 0. && x <= 1. then Ok x else Error "must be a number in (0, 1]"

let heuristic_name = function
  | Profile_guided -> "profile_guided"
  | Static_leaf -> "static_leaf"
  | Static_small n -> Printf.sprintf "static_small:%d" n

let linearization_name = function
  | Lin_weight_sorted -> "weight_sorted"
  | Lin_random -> "random"
  | Lin_reverse -> "reverse"
  | Lin_topological -> "topological"

(* A canonical rendering of every field, used to key cached
   selection/expansion artifacts: two configs share a fingerprint iff
   no field differs, so flipping any knob invalidates exactly the
   stages that depend on it. *)
let fingerprint t =
  Printf.sprintf
    "wt=%.17g;stack=%d;fsize=%d;ratio=%.17g;seed=%d;heur=%s;lin=%s;refine=%b;devirt=%b;dvt=%.17g"
    t.weight_threshold t.stack_bound t.func_size_limit
    t.program_size_limit_ratio t.linearize_seed (heuristic_name t.heuristic)
    (linearization_name t.linearization) t.refine_pointer_targets t.devirt
    t.devirt_threshold
