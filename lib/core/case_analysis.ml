type case = (string * Tvalue.t) list

let parse text =
  let groups = String.split_on_char ';' text in
  let parse_assignment s =
    match String.index_opt s '=' with
    | None -> Error (Printf.sprintf "case assignment missing '=': %S" (String.trim s))
    | Some i ->
      let name = String.trim (String.sub s 0 i) in
      let value = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      if name = "" then Error "case assignment with empty signal name"
      else (
        match value with
        | "0" -> Ok (name, Tvalue.V0)
        | "1" -> Ok (name, Tvalue.V1)
        | v -> Error (Printf.sprintf "case value must be 0 or 1, got %S" v))
  in
  let parse_group g =
    let parts =
      String.split_on_char ',' g |> List.map String.trim |> List.filter (fun s -> s <> "")
    in
    (* A signal assigned twice within one case is a specification error:
       the evaluator would silently let the last write win. *)
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match parse_assignment p with
        | Error e -> Error e
        | Ok ((name, _) as a) ->
          if List.mem_assoc name acc then
            Error
              (Printf.sprintf "duplicate assignment for signal %S within one case" name)
          else go (a :: acc) rest)
    in
    go [] parts
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | g :: rest -> (
      if String.trim g = "" then go acc rest
      else
        match parse_group g with
        | Ok [] -> go acc rest
        | Ok c -> go (c :: acc) rest
        | Error e -> Error e)
  in
  go [] groups

let parse_exn text =
  match parse text with Ok cs -> cs | Error e -> invalid_arg ("Case_analysis.parse: " ^ e)

let resolve nl case =
  let unknown =
    List.filter_map
      (fun (name, _) ->
        match Netlist.find nl name with Some _ -> None | None -> Some name)
      case
  in
  (match unknown with
  | [] -> ()
  | names ->
    (* Report every unknown name at once: a designer fixing a case file
       should not have to re-run once per typo. *)
    invalid_arg
      (Printf.sprintf "Case_analysis.resolve: unknown signal%s %s"
         (if List.length names = 1 then "" else "s")
         (String.concat ", " (List.map (Printf.sprintf "%S") names))));
  List.map
    (fun (name, v) ->
      match Netlist.find nl name with
      | Some id -> (id, v)
      | None -> assert false)
    case

let max_controls = 16

let dedup_names names =
  let rec go seen = function
    | [] -> []
    | n :: rest -> if List.mem n seen then go seen rest else n :: go (n :: seen) rest
  in
  go [] names

let complete names =
  (* A repeated control would otherwise yield contradictory assignments
     of both 0 and 1 to the same signal within one case. *)
  let names = dedup_names names in
  let n = List.length names in
  if n > max_controls then
    Error
      (Printf.sprintf
         "Case_analysis.complete: %d control signals expand to 2^%d cases; the limit is \
          %d controls"
         n n max_controls)
  else
    Ok
      (List.init (1 lsl n) (fun bits ->
           List.mapi
             (fun i name ->
               (name, if bits land (1 lsl i) <> 0 then Tvalue.V1 else Tvalue.V0))
             names))

let complete_exn names =
  match complete names with Ok cs -> cs | Error e -> invalid_arg e

let pp ppf case =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (name, v) -> Format.fprintf ppf "%s = %a" name Tvalue.pp v)
    ppf case
