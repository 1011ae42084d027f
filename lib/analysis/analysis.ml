(** The combined two-level global analysis of §5: per-TE element-wise
    dependence class and compute/memory intensity, plus program-wide reuse
    opportunities.  This is the "Analysis Result" box of Fig. 2 step 2. *)

module SMap = Program.SMap

type te_info = {
  te : Te.t;
  dep : Dep.t;
  kind : Intensity.kind;
  ratio : float;
}

type t = {
  program : Program.t;
  infos : te_info SMap.t;
  reuse : Reuse.t;
}

let run (p : Program.t) : t =
  let infos =
    List.fold_left
      (fun acc (te : Te.t) ->
        SMap.add te.Te.name
          {
            te;
            dep = Dep.classify te;
            kind = Intensity.classify p te;
            ratio = Intensity.ratio p te;
          }
          acc)
      SMap.empty p.Program.tes
  in
  { program = p; infos; reuse = Reuse.find p }

let info t name =
  match SMap.find_opt name t.infos with
  | Some i -> i
  | None -> invalid_arg ("Analysis.info: unknown TE " ^ name)

let is_compute_intensive t name = (info t name).kind = Intensity.Compute_intensive

let is_one_to_one t name =
  match (info t name).dep with
  | Dep.One_relies_on_one -> true
  | Dep.One_relies_on_many _ -> false

(** Names of TEs by class, in program order. *)
let compute_intensive t =
  List.filter_map
    (fun (te : Te.t) ->
      if is_compute_intensive t te.Te.name then Some te.Te.name else None)
    t.program.Program.tes

let memory_intensive t =
  List.filter_map
    (fun (te : Te.t) ->
      if is_compute_intensive t te.Te.name then None else Some te.Te.name)
    t.program.Program.tes

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun (te : Te.t) ->
      let i = info t te.Te.name in
      Fmt.pf ppf "%s: {%s, %s, ratio=%.2f}@," te.Te.name
        (match i.dep with
        | Dep.One_relies_on_one -> "one-relies-on-one"
        | Dep.One_relies_on_many _ -> "one-relies-on-many")
        (Intensity.kind_to_string i.kind) i.ratio)
    t.program.Program.tes;
  Reuse.pp ppf t.reuse;
  Fmt.pf ppf "@]"
