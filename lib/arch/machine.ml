type backend = Cpu | Gpu | Npu

type t = {
  name : string;
  backend : backend;
  peak_tflops : float;
  freq_ghz : float;
  cores : int;
  vector_registers : int;
  vector_lanes : int;
  tensor_tile : int * int * int;
  levels : Level.t list;
}

let validate_levels levels =
  match List.rev levels with
  | [] -> invalid_arg "Machine.make: empty hierarchy"
  | outer :: _ ->
      if not (Level.is_dram outer) then
        invalid_arg "Machine.make: hierarchy must end at DRAM";
      let rec check = function
        | a :: (b :: _ as rest) ->
            if a.Level.capacity_bytes > b.Level.capacity_bytes then
              invalid_arg "Machine.make: capacities must be non-decreasing";
            check rest
        | _ -> ()
      in
      check levels

let make ~name ~backend ~peak_tflops ~freq_ghz ~cores ~vector_registers
    ~vector_lanes ?(tensor_tile = (1, 1, 1)) ~levels () =
  validate_levels levels;
  {
    name;
    backend;
    peak_tflops;
    freq_ghz;
    cores;
    vector_registers;
    vector_lanes;
    tensor_tile;
    levels;
  }

let dram t = List.nth t.levels (List.length t.levels - 1)
let on_chip_levels t = List.filter (fun l -> not (Level.is_dram l)) t.levels

let primary_on_chip t =
  match List.rev (on_chip_levels t) with
  | outer :: _ -> outer
  | [] -> invalid_arg "Machine.primary_on_chip: no on-chip level"

let dram_bandwidth_gbps t = (dram t).Level.link_bandwidth_gbps
let peak_flops t = t.peak_tflops *. 1e12
let ridge_flop_per_byte t = peak_flops t /. (dram_bandwidth_gbps t *. 1e9)
let backend_to_string = function Cpu -> "cpu" | Gpu -> "gpu" | Npu -> "npu"

let pp fmt t =
  Format.fprintf fmt "%s (%s): %.0f TFLOPS fp16, %d cores @ %.2f GHz@."
    t.name
    (backend_to_string t.backend)
    t.peak_tflops t.cores t.freq_ghz;
  Format.fprintf fmt "  ridge: %.0f FLOP/byte@." (ridge_flop_per_byte t);
  List.iter (fun l -> Format.fprintf fmt "  %a@." Level.pp l) t.levels
