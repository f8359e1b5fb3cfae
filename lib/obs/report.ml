open Mpas_patterns
open Mpas_machine
open Mpas_obs

type row = {
  kernel : string;
  calls_per_step : int;
  measured_s : float;
  modelled_s : float;
  ratio : float;
}

type t = { device : string; steps : int; rows : row list }

let make ?(device = Hw.xeon_e5_2680_v2) ?(params = Costmodel.default_params)
    ?(flags = Costmodel.baseline) ~stats ~steps measured =
  if steps < 1 then invalid_arg "Report.make: steps must be >= 1";
  let rows =
    List.map
      (fun kernel ->
        let name = Pattern.kernel_name kernel in
        let total =
          match List.assoc_opt name measured with Some s -> s | None -> 0.
        in
        let measured_s = total /. float_of_int steps in
        let modelled_s = Costmodel.kernel_time device params flags stats kernel in
        {
          kernel = name;
          calls_per_step = Cost.kernel_calls_per_step kernel;
          measured_s;
          modelled_s;
          ratio = (if modelled_s > 0. then measured_s /. modelled_s else Float.nan);
        })
      Pattern.all_kernels
  in
  { device = device.Hw.name; steps; rows }

let measured_total t = List.fold_left (fun acc r -> acc +. r.measured_s) 0. t.rows
let modelled_total t = List.fold_left (fun acc r -> acc +. r.modelled_s) 0. t.rows

let to_string t =
  let header =
    Format.sprintf
      "measured vs roofline (%s model, %d-step measurement)\n%-28s %12s %12s %8s"
      t.device t.steps "kernel" "measured" "modelled" "ratio"
  in
  let lines =
    List.map
      (fun r ->
        Format.sprintf "%-28s %9.3f ms %9.3f ms %8.2f" r.kernel
          (1e3 *. r.measured_s) (1e3 *. r.modelled_s) r.ratio)
      t.rows
  in
  let total =
    Format.sprintf "%-28s %9.3f ms %9.3f ms %8.2f" "total"
      (1e3 *. measured_total t) (1e3 *. modelled_total t)
      (if modelled_total t > 0. then measured_total t /. modelled_total t
       else Float.nan)
  in
  String.concat "\n" ((header :: lines) @ [ total ])

let to_json t =
  Jsonv.Obj
    [
      ("device", Jsonv.Str t.device);
      ("steps", Jsonv.Num (float_of_int t.steps));
      ( "kernels",
        Jsonv.Arr
          (List.map
             (fun r ->
               Jsonv.Obj
                 [
                   ("kernel", Jsonv.Str r.kernel);
                   ("calls_per_step", Jsonv.Num (float_of_int r.calls_per_step));
                   ("measured_s", Jsonv.Num r.measured_s);
                   ("modelled_s", Jsonv.Num r.modelled_s);
                   ("ratio", Jsonv.Num r.ratio);
                 ])
             t.rows) );
      ("measured_total_s", Jsonv.Num (measured_total t));
      ("modelled_total_s", Jsonv.Num (modelled_total t));
    ]

let of_json j =
  let get key v =
    match Jsonv.member key v with
    | Some x -> x
    | None -> failwith ("Report.of_json: missing field " ^ key)
  in
  let row v =
    {
      kernel = Jsonv.to_str (get "kernel" v);
      calls_per_step = Jsonv.to_int (get "calls_per_step" v);
      measured_s = Jsonv.to_float (get "measured_s" v);
      modelled_s = Jsonv.to_float (get "modelled_s" v);
      ratio =
        (match get "ratio" v with Jsonv.Num x -> x | _ -> Float.nan);
    }
  in
  {
    device = Jsonv.to_str (get "device" j);
    steps = Jsonv.to_int (get "steps" j);
    rows = List.map row (Jsonv.to_arr (get "kernels" j));
  }
