include Mf_util.Json
